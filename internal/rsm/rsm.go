// Package rsm implements CATA's software Reconfiguration Support Module
// (§III-A, Figure 2): the runtime-system component that tracks each core's
// state (Accelerated / Non-Accelerated), the criticality of the task it
// runs (Critical / Non-Critical / No Task) and the power budget, and
// drives DVFS reconfigurations through the cpufreq framework.
//
// All reconfiguration decisions execute under a runtime-level lock and the
// cpufreq writes execute sequentially within it — the serialization the
// paper identifies as CATA's scalability bottleneck (§V-C) and the RSU
// removes.
package rsm

import (
	"fmt"

	"cata/internal/cpufreq"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/sim"
	"cata/internal/stats"
)

// CritState is the per-core criticality field of Figure 2/3.
type CritState int

const (
	// NoTask: the core is not executing a task.
	NoTask CritState = iota
	// NonCritical: the core executes a non-critical task.
	NonCritical
	// Critical: the core executes a critical task.
	Critical
)

// String returns a one-character state marker.
func (c CritState) String() string {
	switch c {
	case NoTask:
		return "-"
	case NonCritical:
		return "NC"
	case Critical:
		return "C"
	default:
		return fmt.Sprintf("CritState(%d)", int(c))
	}
}

// RSM is the software reconfiguration module.
type RSM struct {
	eng  *sim.Engine
	mach *machine.Machine
	fw   *cpufreq.Framework
	lock *cpufreq.Lock

	budget int
	crit   []CritState
	accel  []bool
	nAccel int

	// Budget accounting: denies counts TaskStart operations that ended
	// without an acceleration (no budget and no victim), and
	// accelCoreTime integrates nAccel over simulated time so budget
	// utilization can be reported per run.
	denies        int64
	accelCoreTime sim.Time
	accelMark     sim.Time

	// BookkeepingCycles is the table-update cost per operation, paid on
	// the calling core inside the lock.
	BookkeepingCycles int64

	// Statistics for §V-C.
	accels, decels int64
	opLatency      stats.DurationSummary // TaskStart/TaskEnd entry→exit
	opTimeTotal    sim.Time              // total time cores spent reconfiguring

	// rec, when non-nil, receives grant/deny events with budget state.
	rec probe.Recorder

	// ops holds one in-flight TaskStart/TaskEnd per core.
	ops []op
}

// op is one core's TaskStart or TaskEnd in flight; a pending done marks
// it busy. It is the target of its own stage events, so an operation —
// lock, bookkeeping and up to two cpufreq writes — schedules them without
// allocating.
type op struct {
	r    *RSM
	core int

	decide   uint8 // opStarted or opEnded: the stage after bookkeeping
	critical bool  // TaskStart: the starting task is critical
	start    sim.Time
	done     sim.Event
}

// op stages.
const (
	opLocked  uint8 = iota // lock granted: pay the bookkeeping
	opStarted              // TaskStart bookkeeping done: decide
	opEnded                // TaskEnd bookkeeping done: decide
	opSwap                 // victim decelerated: accelerate this core
	opHandoff              // TaskEnd core decelerated: hand its budget on
	opFinish               // last write returned: release and finish
)

// New creates an RSM with the given power budget (maximum number of
// simultaneously accelerated cores).
func New(eng *sim.Engine, mach *machine.Machine, fw *cpufreq.Framework, budget int) *RSM {
	if budget < 0 || budget > mach.Cores() {
		panic(fmt.Sprintf("rsm: budget %d out of range [0,%d]", budget, mach.Cores()))
	}
	r := &RSM{
		eng:               eng,
		mach:              mach,
		fw:                fw,
		lock:              cpufreq.NewLock(eng),
		budget:            budget,
		crit:              make([]CritState, mach.Cores()),
		accel:             make([]bool, mach.Cores()),
		BookkeepingCycles: 400,
		ops:               make([]op, mach.Cores()),
	}
	for i := range r.ops {
		r.ops[i] = op{r: r, core: i}
	}
	return r
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state at decision time.
func (r *RSM) SetRecorder(rec probe.Recorder) { r.rec = rec }

// Budget returns the power budget.
func (r *RSM) Budget() int { return r.budget }

// Accelerated reports whether the RSM considers the core accelerated.
func (r *RSM) Accelerated(core int) bool { return r.accel[core] }

// AcceleratedCount returns how many cores are currently accelerated. The
// invariant AcceleratedCount() <= Budget() holds at all times.
func (r *RSM) AcceleratedCount() int { return r.nAccel }

// Crit returns the criticality field for a core.
func (r *RSM) Crit(core int) CritState { return r.crit[core] }

// Lock exposes the runtime reconfiguration lock for contention analysis.
func (r *RSM) Lock() *cpufreq.Lock { return r.lock }

// Reconfigs returns the number of acceleration and deceleration
// operations issued.
func (r *RSM) Reconfigs() (accels, decels int64) { return r.accels, r.decels }

// Denied returns how many TaskStart operations ended without an
// acceleration — the task ran non-accelerated because the budget was
// exhausted and (for critical tasks) no non-critical victim existed.
func (r *RSM) Denied() int64 { return r.denies }

// AccelCoreTime returns the accelerated core-time accumulated so far:
// the integral of the accelerated-core count over simulated time.
// Dividing by budget × makespan yields the power-budget utilization.
func (r *RSM) AccelCoreTime() sim.Time {
	return r.accelCoreTime + sim.Time(r.nAccel)*(r.eng.Now()-r.accelMark)
}

// noteAccelChange folds the elapsed interval at the current
// accelerated-core count into the integral before nAccel changes.
func (r *RSM) noteAccelChange() {
	now := r.eng.Now()
	r.accelCoreTime += sim.Time(r.nAccel) * (now - r.accelMark)
	r.accelMark = now
}

// OpLatency summarizes the latency of TaskStart/TaskEnd operations
// (lock wait + bookkeeping + cpufreq writes) — the paper's
// "reconfiguration latency" (§V-C).
func (r *RSM) OpLatency() *stats.DurationSummary { return &r.opLatency }

// OpTimeTotal returns the total core time consumed by reconfiguration
// operations, for the §V-C overhead percentage.
func (r *RSM) OpTimeTotal() sim.Time { return r.opTimeTotal }

// TaskStart runs the §III-A algorithm when a task begins on core:
//
//	if budget is available            -> accelerate core (even non-critical)
//	else if task is critical and some -> decelerate that core, then
//	     accelerated core runs a         accelerate this one
//	     non-critical task
//	else                              -> run non-accelerated
//
// The operation (lock, bookkeeping, cpufreq writes) executes on the
// calling core's timeline; done fires when it completes and the task may
// start executing. A core runs one operation at a time: starting a
// second before done has fired panics.
func (r *RSM) TaskStart(core int, critical bool, done sim.Event) {
	r.begin(core, opStarted, critical, done)
}

// TaskEnd runs the §III-A algorithm when a task finishes on core: the core
// is decelerated and, if a critical task runs non-accelerated somewhere,
// that core is accelerated with the freed budget.
func (r *RSM) TaskEnd(core int, done sim.Event) {
	r.begin(core, opEnded, false, done)
}

// begin claims the core's operation slot and queues for the lock.
func (r *RSM) begin(core int, decide uint8, critical bool, done sim.Event) {
	o := &r.ops[core]
	if o.done.T != nil {
		panic(fmt.Sprintf("rsm: operation on core %d while another is in flight", core))
	}
	o.decide, o.critical = decide, critical
	o.start = r.eng.Now()
	o.done = done
	r.lock.Acquire(sim.Event{T: o, Op: opLocked})
}

// Fire implements sim.Target: it runs one stage of the operation.
func (o *op) Fire(stage uint8) {
	r, core := o.r, o.core
	switch stage {
	case opLocked:
		r.mach.Core(core).Exec(r.BookkeepingCycles, 0, sim.Event{T: o, Op: o.decide})
	case opStarted:
		r.crit[core] = NonCritical
		if o.critical {
			r.crit[core] = Critical
		}
		victim := -1
		if r.nAccel >= r.budget && o.critical {
			victim = r.findVictim()
		}
		switch {
		case r.nAccel < r.budget:
			r.accelerate(core)
			r.write(core, core, true, sim.Event{T: o, Op: opFinish})
		case victim >= 0:
			r.decelerate(victim)
			r.write(core, victim, false, sim.Event{T: o, Op: opSwap})
		default:
			// No budget, and the task is non-critical or every
			// accelerated core runs a critical task: run slow.
			r.denies++
			if r.rec != nil {
				r.rec.AccelDeny(r.eng.Now(), core, o.critical, r.nAccel, r.budget)
			}
			o.finish()
		}
	case opEnded:
		r.crit[core] = NoTask
		if !r.accel[core] {
			o.finish()
			return
		}
		r.decelerate(core)
		r.write(core, core, false, sim.Event{T: o, Op: opHandoff})
	case opSwap:
		r.accelerate(core)
		r.write(core, core, true, sim.Event{T: o, Op: opFinish})
	case opHandoff:
		next := r.findWaitingCritical()
		if next < 0 {
			o.finish()
			return
		}
		r.accelerate(next)
		r.write(core, next, true, sim.Event{T: o, Op: opFinish})
	case opFinish:
		o.finish()
	}
}

// finish releases the runtime lock, accounts the operation's latency,
// frees the core's slot and hands control back to the runtime.
func (o *op) finish() {
	r := o.r
	r.lock.Release()
	lat := r.eng.Now() - o.start
	r.opLatency.ObserveTime(lat)
	r.opTimeTotal += lat
	done := o.done
	o.done = sim.Event{}
	done.Fire()
}

// findVictim returns an accelerated core running a non-critical task, or
// -1. Lowest index first: deterministic and matching a linear table scan.
func (r *RSM) findVictim() int {
	for i := range r.accel {
		if r.accel[i] && r.crit[i] == NonCritical {
			return i
		}
	}
	return -1
}

// findWaitingCritical returns a non-accelerated core running a critical
// task, or -1.
func (r *RSM) findWaitingCritical() int {
	for i := range r.accel {
		if !r.accel[i] && r.crit[i] == Critical {
			return i
		}
	}
	return -1
}

func (r *RSM) accelerate(core int) {
	if r.accel[core] {
		panic(fmt.Sprintf("rsm: double accelerate of core %d", core))
	}
	r.noteAccelChange()
	r.accel[core] = true
	r.nAccel++
	r.accels++
	if r.nAccel > r.budget {
		panic(fmt.Sprintf("rsm: budget exceeded: %d > %d", r.nAccel, r.budget))
	}
	if r.rec != nil {
		r.rec.AccelGrant(r.eng.Now(), core, r.crit[core] == Critical, r.nAccel, r.budget)
	}
}

func (r *RSM) decelerate(core int) {
	if !r.accel[core] {
		panic(fmt.Sprintf("rsm: decelerate of non-accelerated core %d", core))
	}
	r.noteAccelChange()
	r.accel[core] = false
	r.nAccel--
	r.decels++
}

func (r *RSM) write(caller, target int, fast bool, done sim.Event) {
	level := r.mach.Cfg.SlowLevel
	if fast {
		level = r.mach.Cfg.FastLevel
	}
	r.fw.Write(caller, target, level, done)
}
