// Package rsm implements CATA's software Reconfiguration Support Module
// (§III-A, Figure 2): the runtime-system component that tracks each core's
// state (Accelerated / Non-Accelerated), the criticality of the task it
// runs (Critical / Non-Critical / No Task) and the power budget, and
// drives DVFS reconfigurations through the cpufreq framework.
//
// The state lives in a Table, the one Figure 2/3 table the hardware RSU
// (internal/rsu) keeps too: the RSM drives it at unit costs {0, 1} with
// cpufreq writes, the RSU at any cost vector with DVFS controller
// requests.
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

// RSM is the software reconfiguration module.
type RSM struct {
	eng  *sim.Engine
	mach *machine.Machine
	fw   *cpufreq.Framework
	lock *cpufreq.Lock
	tab  Table

	// BookkeepingCycles is the table-update cost per operation, paid on
	// the calling core inside the lock.
	BookkeepingCycles int64

	// Statistics for §V-C.
	opLatency   stats.DurationSummary // TaskStart/TaskEnd entry→exit
	opTimeTotal sim.Time              // total time cores spent reconfiguring

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

// twoLevel is the RSM's unit costs: a core is accelerated or not, and
// the budget counts accelerated cores.
var twoLevel = []int{0, 1}

// New creates an RSM with the given power budget (maximum number of
// simultaneously accelerated cores).
func New(eng *sim.Engine, mach *machine.Machine, fw *cpufreq.Framework, budget int) *RSM {
	r := &RSM{
		eng:               eng,
		mach:              mach,
		fw:                fw,
		lock:              cpufreq.NewLock(eng),
		tab:               NewTable(eng, mach.Cores(), twoLevel),
		BookkeepingCycles: 400,
		ops:               make([]op, mach.Cores()),
	}
	r.tab.SetBudget(budget)
	for i := range r.ops {
		r.ops[i] = op{r: r, core: i}
	}
	return r
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state at decision time.
func (r *RSM) SetRecorder(rec probe.Recorder) { r.tab.SetRecorder(rec) }

// Table returns the RSM's reconfiguration table: per-core criticality
// and acceleration, the budget, and the grant/deny counters. Its
// invariant Used() <= Budget() holds at all times.
func (r *RSM) Table() *Table { return &r.tab }

// Lock exposes the runtime reconfiguration lock for contention analysis.
func (r *RSM) Lock() *cpufreq.Lock { return r.lock }

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
		t := &r.tab
		t.SetCrit(core, CritOf(o.critical))
		victim := -1
		if t.Free() == 0 && o.critical {
			victim = t.Victim()
		}
		switch {
		case t.Free() > 0:
			t.Set(core, 1)
			r.write(core, core, true, sim.Event{T: o, Op: opFinish})
		case victim >= 0:
			t.Set(victim, 0)
			r.write(core, victim, false, sim.Event{T: o, Op: opSwap})
		default:
			// No budget, and the task is non-critical or every
			// accelerated core runs a critical task: run slow.
			t.Deny(core)
			o.finish()
		}
	case opEnded:
		r.tab.SetCrit(core, NoTask)
		if !r.tab.Set(core, 0) {
			o.finish()
			return
		}
		r.write(core, core, false, sim.Event{T: o, Op: opHandoff})
	case opSwap:
		r.tab.Set(core, 1)
		r.write(core, core, true, sim.Event{T: o, Op: opFinish})
	case opHandoff:
		next := r.tab.Starved()
		if next < 0 {
			o.finish()
			return
		}
		r.tab.Set(next, 1)
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

func (r *RSM) write(caller, target int, fast bool, done sim.Event) {
	level := r.mach.Cfg.SlowLevel
	if fast {
		level = r.mach.Cfg.FastLevel
	}
	r.fw.Write(caller, target, level, done)
}
