package cpufreq

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/sim"
	"cata/internal/stats"
)

// Costs parameterizes the software path of one frequency write (Figure 2:
// runtime → policy file → interrupt → cpufreq driver → DVFS controller →
// return). Cycle costs scale with the calling core's frequency; fixed
// costs (device register access) do not.
type Costs struct {
	// UserKernelCycles covers the policy-file write, the trap and kernel
	// entry ("the cpufreq daemon triggers an interrupt ...").
	UserKernelCycles int64
	// DriverCycles is the cpufreq driver's computation under the big
	// lock, including the kernel's clock bookkeeping ("the kernel updates
	// all its internal data structures related to the clock frequency").
	DriverCycles int64
	// DriverFixed is the frequency-invariant device-register programming
	// time inside the driver.
	DriverFixed sim.Time
	// ReturnCycles covers the kernel exit back to user space.
	ReturnCycles int64
	// HousekeepPeriod and HousekeepHold model periodic kernel activity
	// (governor sampling, notifier chains, timekeeping updates) that
	// takes the global policy lock for a long stretch. Reconfiguration
	// operations colliding with a housekeeping window queue behind it —
	// the mechanism behind the paper's millisecond-scale worst-case lock
	// acquisitions in reconfiguration-heavy applications (§V-C), while
	// the average stays in the tens of microseconds. Zero disables it.
	HousekeepPeriod sim.Time
	HousekeepHold   sim.Time
}

// DefaultCosts returns the calibration used in the experiments. At 1 GHz
// the uncontended software path is ~7.5 µs (half that at 2 GHz for the
// cycle components), which together with lock queueing reproduces the
// paper's measured 11–65 µs average CATA reconfiguration latencies and
// millisecond worst-case lock acquisitions under barrier bursts (§V-C).
func DefaultCosts() Costs {
	return Costs{
		UserKernelCycles: 2500, // 2.5µs @1GHz
		DriverCycles:     3000, // 3µs @1GHz
		DriverFixed:      1 * sim.Microsecond,
		ReturnCycles:     1000, // 1µs @1GHz
		HousekeepPeriod:  90 * sim.Millisecond,
		HousekeepHold:    1200 * sim.Microsecond,
	}
}

// Framework models the kernel cpufreq stack: per-core policy files with a
// userspace governor, and one global driver lock (the kernel serializes
// policy updates; §III-A: "some steps ... inherently need to execute
// sequentially").
type Framework struct {
	eng   *sim.Engine
	mach  *machine.Machine
	costs Costs
	lock  *Lock

	writes    int64
	writeLat  stats.DurationSummary // entry to syscall return
	perCaller []stats.DurationSummary

	hkArmed      bool
	hkLastWrites int64

	// ops holds one in-flight write per calling core.
	ops []writeOp

	// rec, when non-nil, receives one WriteEvent per completed policy
	// write, carrying the lock-wait share of the total latency.
	rec probe.Recorder
}

// writeOp is one core's policy write in flight; a pending done marks it
// busy. It is the target of its own stage events, so a write schedules
// them without allocating.
type writeOp struct {
	f      *Framework
	caller int
	core   *machine.Core

	target    int
	level     energy.Level
	done      sim.Event
	start     sim.Time
	lockStart sim.Time
	lockWait  sim.Time
}

// Framework ops: the periodic housekeeping path.
const (
	opHousekeep uint8 = iota // period elapsed: take the policy lock
	opHkGranted              // lock taken: hold it
	opHkHeld                 // hold elapsed: release, maybe re-arm
)

// writeOp ops: the stages of one policy write.
const (
	opEntered  uint8 = iota // kernel entered: take the driver lock
	opGranted               // lock granted: run the driver
	opDriven                // driver done: kick DVFS, unlock, return
	opReturned              // back in user space: account and finish
)

// New returns a framework bound to the machine.
func New(eng *sim.Engine, mach *machine.Machine, costs Costs) *Framework {
	f := &Framework{
		eng:       eng,
		mach:      mach,
		costs:     costs,
		lock:      NewLock(eng),
		perCaller: make([]stats.DurationSummary, mach.Cores()),
		ops:       make([]writeOp, mach.Cores()),
	}
	for i := range f.ops {
		f.ops[i] = writeOp{f: f, caller: i, core: mach.Core(i)}
	}
	return f
}

// SetRecorder attaches a flight recorder reporting completed writes.
func (f *Framework) SetRecorder(rec probe.Recorder) { f.rec = rec }

// armHousekeeping starts the periodic kernel housekeeping on the first
// write and keeps it running only while writes keep coming, so an idle
// system (and the event queue) quiesces.
func (f *Framework) armHousekeeping() {
	if f.hkArmed || f.costs.HousekeepPeriod <= 0 || f.costs.HousekeepHold <= 0 {
		return
	}
	f.hkArmed = true
	f.eng.After(f.costs.HousekeepPeriod/3, sim.Event{T: f, Op: opHousekeep})
}

// Fire implements sim.Target: the periodic kernel path that holds the
// policy lock (it runs on a kernel thread, not on a simulated core).
func (f *Framework) Fire(op uint8) {
	switch op {
	case opHousekeep:
		f.lock.Acquire(sim.Event{T: f, Op: opHkGranted})
	case opHkGranted:
		f.eng.After(f.costs.HousekeepHold, sim.Event{T: f, Op: opHkHeld})
	case opHkHeld:
		f.lock.Release()
		if f.writes == f.hkLastWrites {
			f.hkArmed = false // quiesce until the next write
			return
		}
		f.hkLastWrites = f.writes
		f.eng.After(f.costs.HousekeepPeriod-f.costs.HousekeepHold, sim.Event{T: f, Op: opHousekeep})
	}
}

// Write performs one policy-file write: set core `target` to `level`,
// executing the software path on core `caller`. done fires when the
// syscall returns to user space; the physical DVFS transition started by
// the driver completes asynchronously (TransitionLatency later).
//
// The caller's core must be in its Busy state (the runtime performs
// writes from the worker's dispatch/completion path), and a core issues
// one write at a time: a second Write from a caller whose previous write
// has not returned panics. done may issue the caller's next write.
func (f *Framework) Write(caller, target int, level energy.Level, done sim.Event) {
	if caller < 0 || caller >= f.mach.Cores() || target < 0 || target >= f.mach.Cores() {
		panic(fmt.Sprintf("cpufreq: write caller=%d target=%d out of range", caller, target))
	}
	op := &f.ops[caller]
	if op.done.T != nil {
		panic(fmt.Sprintf("cpufreq: write from core %d while its previous write is in flight", caller))
	}
	op.target, op.level, op.done = target, level, done
	op.start = f.eng.Now()
	f.writes++
	f.armHousekeeping()
	// 1. User→kernel: file write, interrupt, kernel entry.
	op.core.Exec(f.costs.UserKernelCycles, 0, sim.Event{T: op, Op: opEntered})
}

// Fire implements sim.Target: it runs one stage of the write.
func (op *writeOp) Fire(stage uint8) {
	f := op.f
	switch stage {
	case opEntered:
		// 2. The driver runs under the global cpufreq lock. The core
		// blocks (stays busy / C0-active) until granted.
		op.lockStart = f.eng.Now()
		f.lock.Acquire(sim.Event{T: op, Op: opGranted})
	case opGranted:
		// 3. Driver computation + device register programming.
		op.lockWait = f.eng.Now() - op.lockStart
		op.core.Exec(f.costs.DriverCycles, f.costs.DriverFixed, sim.Event{T: op, Op: opDriven})
	case opDriven:
		// 4. Kick the hardware transition, then 5. return to user space.
		f.mach.DVFS.Request(op.target, op.level)
		f.lock.Release()
		op.core.Exec(f.costs.ReturnCycles, 0, sim.Event{T: op, Op: opReturned})
	case opReturned:
		lat := f.eng.Now() - op.start
		f.writeLat.ObserveTime(lat)
		f.perCaller[op.caller].ObserveTime(lat)
		if f.rec != nil {
			f.rec.CpufreqWrite(f.eng.Now(), op.caller, op.target, int(op.level), op.lockWait, lat)
		}
		done := op.done
		op.done = sim.Event{}
		done.Fire()
	}
}

// Writes returns the number of policy writes performed.
func (f *Framework) Writes() int64 { return f.writes }

// WriteLatency summarizes entry-to-return latency across all writes.
func (f *Framework) WriteLatency() *stats.DurationSummary { return &f.writeLat }

// CallerLatency summarizes write latencies observed by one core — useful
// for spotting cores that systematically lose the lock race (e.g. the
// master thread issuing reconfigurations during creation bursts).
func (f *Framework) CallerLatency(core int) *stats.DurationSummary {
	return &f.perCaller[core]
}

// DriverLock exposes the global lock for contention statistics (§V-C).
func (f *Framework) DriverLock() *Lock { return f.lock }
