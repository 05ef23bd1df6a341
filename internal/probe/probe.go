// Package probe is the flight-recorder layer of the simulator: a typed
// event sink that the runtime (internal/rts), the machine model
// (internal/machine), the energy meter, the cpufreq stack and the
// RSM/RSU reconfiguration mechanisms emit into when a recorder is
// attached.
//
// The design constraint is that an unattached recorder costs nothing:
// every probe site guards with `if rec != nil`, every Recorder method
// takes only scalars or pre-existing pointers (no boxing, no closures,
// no variadics), so the disabled path performs zero allocations and the
// per-policy makespan checksums stay bit-identical whether or not the
// probe package is compiled in. A test in this package pins the
// zero-alloc property; internal/exp pins behavioral invariance with a
// recorder attached.
package probe

import (
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Recorder receives typed events from the simulator's probe sites.
// Implementations must not mutate simulation state: the engine invokes
// them synchronously from hot paths, and behavioral invariance (same
// makespans with and without a recorder) depends on them being pure
// observers.
type Recorder interface {
	// TaskReady fires when a task's dependences resolve and it enters
	// the ready queue.
	TaskReady(now sim.Time, t *tdg.Task)
	// TaskDispatch fires when a core dequeues the task and begins the
	// dispatch pipeline.
	TaskDispatch(now sim.Time, t *tdg.Task, core int)
	// TaskStart fires when the task body begins executing; readyWait is
	// the queue-wait latency (ready → start).
	TaskStart(now sim.Time, t *tdg.Task, core int, readyWait sim.Time)
	// TaskEnd fires when the task body (and any IO) completes.
	TaskEnd(now sim.Time, t *tdg.Task, core int)
	// FreqRequest fires when a DVFS target-level request is committed
	// (coalesced no-op requests are not reported).
	FreqRequest(now sim.Time, core, level int)
	// FreqActual fires when a core's physical level changes; freqHz is
	// the new frequency and settleWait the request→effect latency (zero
	// when the landing transition no longer matches the target).
	FreqActual(now sim.Time, core, level int, freqHz sim.Hertz, settleWait sim.Time)
	// CpufreqWrite fires when one kernel cpufreq policy write returns to
	// user space: caller executed the software path to retune target,
	// waiting lockWait on the global driver lock out of total latency.
	CpufreqWrite(now sim.Time, caller, target, level int, lockWait, total sim.Time)
	// AccelGrant fires when the RSM/RSU raises a core's level; used is
	// the budget units in use after the grant and budget the power
	// budget in units (on a two-level table, accelerated cores).
	AccelGrant(now sim.Time, core int, critical bool, used, budget int)
	// AccelDeny fires when a task start is denied acceleration (budget
	// exhausted and, for critical tasks, no non-critical victim).
	AccelDeny(now sim.Time, core int, critical bool, used, budget int)
	// Power fires when total chip power changes; watts includes the
	// uncore term.
	Power(now sim.Time, watts float64)
	// QueueDepth is the periodic ready-queue sample: ready tasks in the
	// scheduler, of which critical are in the high-priority queue.
	QueueDepth(now sim.Time, ready, critical int)
}

// TaskKind tags one task lifecycle event in a Buffer.
type TaskKind uint8

// The task lifecycle event kinds, in pipeline order.
const (
	// KindReady: dependences resolved, enqueued.
	KindReady TaskKind = iota
	// KindDispatch: dequeued by a core.
	KindDispatch
	// KindStart: body began executing.
	KindStart
	// KindEnd: body (and IO) completed.
	KindEnd
)

// TaskEvent is one recorded task lifecycle event.
type TaskEvent struct {
	// At is the simulation time of the event.
	At sim.Time
	// Kind is the lifecycle stage.
	Kind TaskKind
	// Task is the task's ID; Core the executing core (-1 when not yet
	// assigned).
	Task, Core int
	// Wait is the queue-wait latency, for KindStart events.
	Wait sim.Time
	// Critical is the task's criticality at event time.
	Critical bool
}

// FreqEvent is one recorded DVFS event: a committed target request or a
// physical level change.
type FreqEvent struct {
	// At is the simulation time of the event.
	At sim.Time
	// Core and Level identify the transition.
	Core, Level int
	// Freq is the new physical frequency (KindActual only).
	Freq sim.Hertz
	// Wait is the request→effect settle latency (KindActual only).
	Wait sim.Time
	// Actual distinguishes physical changes (true) from target requests.
	Actual bool
}

// WriteEvent is one recorded cpufreq policy write.
type WriteEvent struct {
	// At is when the write returned to user space.
	At sim.Time
	// Caller executed the software path; Target is the retuned core.
	Caller, Target, Level int
	// LockWait is time queued on the global driver lock; Total the full
	// entry-to-return latency.
	LockWait, Total sim.Time
}

// AccelEvent is one recorded RSM/RSU acceleration decision.
type AccelEvent struct {
	// At is the simulation time of the decision.
	At sim.Time
	// Core is the task's core; Used the accelerated-core count after the
	// decision and Budget the power budget.
	Core, Used, Budget int
	// Critical is the task's criticality; Granted whether the core was
	// accelerated.
	Critical, Granted bool
}

// PowerSample is one recorded total-chip-power change.
type PowerSample struct {
	// At is the simulation time of the sample.
	At sim.Time
	// Watts is total chip power including the uncore term.
	Watts float64
}

// QueueSample is one periodic ready-queue-depth sample.
type QueueSample struct {
	// At is the simulation time of the sample.
	At sim.Time
	// Ready is the scheduler's queued-task count; Critical the
	// high-priority-queue share of it.
	Ready, Critical int
}

// Buffer is the standard Recorder: it appends every event to typed
// in-memory slices for export (internal/trace renders them as a
// Perfetto trace). Not safe for concurrent use; one simulation is
// single-threaded by construction.
type Buffer struct {
	// Tasks holds the task lifecycle events in emission order.
	Tasks []TaskEvent
	// Freqs holds DVFS target requests and physical changes.
	Freqs []FreqEvent
	// Writes holds completed cpufreq policy writes.
	Writes []WriteEvent
	// Accels holds acceleration grants and denials.
	Accels []AccelEvent
	// Powers holds total-chip-power changes.
	Powers []PowerSample
	// Queues holds the periodic ready-queue samples.
	Queues []QueueSample
}

// NewBuffer returns an empty recording buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// TaskReady implements Recorder.
func (b *Buffer) TaskReady(now sim.Time, t *tdg.Task) {
	b.Tasks = append(b.Tasks, TaskEvent{At: now, Kind: KindReady, Task: t.ID, Core: t.Core, Critical: t.Critical})
}

// TaskDispatch implements Recorder.
func (b *Buffer) TaskDispatch(now sim.Time, t *tdg.Task, core int) {
	b.Tasks = append(b.Tasks, TaskEvent{At: now, Kind: KindDispatch, Task: t.ID, Core: core, Critical: t.Critical})
}

// TaskStart implements Recorder.
func (b *Buffer) TaskStart(now sim.Time, t *tdg.Task, core int, readyWait sim.Time) {
	b.Tasks = append(b.Tasks, TaskEvent{At: now, Kind: KindStart, Task: t.ID, Core: core, Wait: readyWait, Critical: t.Critical})
}

// TaskEnd implements Recorder.
func (b *Buffer) TaskEnd(now sim.Time, t *tdg.Task, core int) {
	b.Tasks = append(b.Tasks, TaskEvent{At: now, Kind: KindEnd, Task: t.ID, Core: core, Critical: t.Critical})
}

// FreqRequest implements Recorder.
func (b *Buffer) FreqRequest(now sim.Time, core, level int) {
	b.Freqs = append(b.Freqs, FreqEvent{At: now, Core: core, Level: level})
}

// FreqActual implements Recorder.
func (b *Buffer) FreqActual(now sim.Time, core, level int, freqHz sim.Hertz, settleWait sim.Time) {
	b.Freqs = append(b.Freqs, FreqEvent{At: now, Core: core, Level: level, Freq: freqHz, Wait: settleWait, Actual: true})
}

// CpufreqWrite implements Recorder.
func (b *Buffer) CpufreqWrite(now sim.Time, caller, target, level int, lockWait, total sim.Time) {
	b.Writes = append(b.Writes, WriteEvent{At: now, Caller: caller, Target: target, Level: level, LockWait: lockWait, Total: total})
}

// AccelGrant implements Recorder.
func (b *Buffer) AccelGrant(now sim.Time, core int, critical bool, used, budget int) {
	b.Accels = append(b.Accels, AccelEvent{At: now, Core: core, Used: used, Budget: budget, Critical: critical, Granted: true})
}

// AccelDeny implements Recorder.
func (b *Buffer) AccelDeny(now sim.Time, core int, critical bool, used, budget int) {
	b.Accels = append(b.Accels, AccelEvent{At: now, Core: core, Used: used, Budget: budget, Critical: critical})
}

// Power implements Recorder.
func (b *Buffer) Power(now sim.Time, watts float64) {
	b.Powers = append(b.Powers, PowerSample{At: now, Watts: watts})
}

// QueueDepth implements Recorder.
func (b *Buffer) QueueDepth(now sim.Time, ready, critical int) {
	b.Queues = append(b.Queues, QueueSample{At: now, Ready: ready, Critical: critical})
}

// Events returns the total number of recorded events across all
// categories.
func (b *Buffer) Events() int {
	return len(b.Tasks) + len(b.Freqs) + len(b.Writes) + len(b.Accels) + len(b.Powers) + len(b.Queues)
}

// Nop is a Recorder that drops every event. Probe sites treat a nil
// Recorder as disabled, so Nop is only needed where a non-nil recorder
// must be passed (e.g. overhead tests comparing against the nil path).
type Nop struct{}

// TaskReady implements Recorder.
func (Nop) TaskReady(sim.Time, *tdg.Task) {}

// TaskDispatch implements Recorder.
func (Nop) TaskDispatch(sim.Time, *tdg.Task, int) {}

// TaskStart implements Recorder.
func (Nop) TaskStart(sim.Time, *tdg.Task, int, sim.Time) {}

// TaskEnd implements Recorder.
func (Nop) TaskEnd(sim.Time, *tdg.Task, int) {}

// FreqRequest implements Recorder.
func (Nop) FreqRequest(sim.Time, int, int) {}

// FreqActual implements Recorder.
func (Nop) FreqActual(sim.Time, int, int, sim.Hertz, sim.Time) {}

// CpufreqWrite implements Recorder.
func (Nop) CpufreqWrite(sim.Time, int, int, int, sim.Time, sim.Time) {}

// AccelGrant implements Recorder.
func (Nop) AccelGrant(sim.Time, int, bool, int, int) {}

// AccelDeny implements Recorder.
func (Nop) AccelDeny(sim.Time, int, bool, int, int) {}

// Power implements Recorder.
func (Nop) Power(sim.Time, float64) {}

// QueueDepth implements Recorder.
func (Nop) QueueDepth(sim.Time, int, int) {}
