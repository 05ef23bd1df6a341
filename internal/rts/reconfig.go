package rts

import (
	"fmt"

	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/rsu"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Reconfigurer is the runtime's hook into a hardware-reconfiguration
// mechanism. TaskStart is invoked after a task is dispatched to a core and
// before its body executes; TaskEnd after the body finishes. done must
// fire exactly once when the runtime may proceed; any time consumed in
// between is reconfiguration overhead on the task's critical path (§V-C).
type Reconfigurer interface {
	Name() string
	TaskStart(core int, t *tdg.Task, done sim.Event)
	TaskEnd(core int, t *tdg.Task, done sim.Event)
}

// NoReconfig is the null mechanism used by FIFO, CATS and TurboMode
// configurations (TurboMode reacts to C-state edges, not task events).
type NoReconfig struct{}

// Name implements Reconfigurer.
func (NoReconfig) Name() string { return "none" }

// TaskStart implements Reconfigurer.
func (NoReconfig) TaskStart(_ int, _ *tdg.Task, done sim.Event) { done.Fire() }

// TaskEnd implements Reconfigurer.
func (NoReconfig) TaskEnd(_ int, _ *tdg.Task, done sim.Event) { done.Fire() }

// RSMReconfig drives CATA's software reconfiguration module: every task
// start/end runs the §III-A algorithm under the runtime lock, paying the
// cpufreq software path on the calling core.
type RSMReconfig struct{ RSM *rsm.RSM }

// Name implements Reconfigurer.
func (r RSMReconfig) Name() string { return "rsm" }

// TaskStart implements Reconfigurer.
func (r RSMReconfig) TaskStart(core int, t *tdg.Task, done sim.Event) {
	r.RSM.TaskStart(core, t.Critical, done)
}

// TaskEnd implements Reconfigurer.
func (r RSMReconfig) TaskEnd(core int, _ *tdg.Task, done sim.Event) {
	r.RSM.TaskEnd(core, done)
}

// RSUReconfig drives the hardware Runtime Support Unit: the runtime
// executes one rsu_start_task/rsu_end_task instruction (a few cycles on
// the calling core); decision and DVFS programming happen in hardware.
// Build it with NewRSUReconfig: each core's instruction in flight is the
// target of its own retire event, and a core issues one at a time.
type RSUReconfig struct {
	unit     *rsu.RSU
	mach     *machine.Machine
	opCycles int64
	ops      []rsuOp
}

// rsuOp is one core's RSU instruction in flight; a pending done marks it
// busy.
type rsuOp struct {
	r        *RSUReconfig
	core     int
	critical bool
	done     sim.Event
}

// rsuOp ops: which instruction retired.
const (
	opRSUStart uint8 = iota // rsu_start_task retired: notify the unit
	opRSUEnd                // rsu_end_task retired: notify the unit
)

// NewRSUReconfig returns the runtime's driver for unit on mach, charging
// opCycles per instruction.
func NewRSUReconfig(unit *rsu.RSU, mach *machine.Machine, opCycles int64) *RSUReconfig {
	r := &RSUReconfig{unit: unit, mach: mach, opCycles: opCycles, ops: make([]rsuOp, mach.Cores())}
	for i := range r.ops {
		r.ops[i] = rsuOp{r: r, core: i}
	}
	return r
}

// Name implements Reconfigurer.
func (r *RSUReconfig) Name() string { return "rsu" }

// TaskStart implements Reconfigurer.
func (r *RSUReconfig) TaskStart(core int, t *tdg.Task, done sim.Event) {
	r.issue(core, opRSUStart, t.Critical, done)
}

// TaskEnd implements Reconfigurer.
func (r *RSUReconfig) TaskEnd(core int, _ *tdg.Task, done sim.Event) {
	r.issue(core, opRSUEnd, false, done)
}

// issue claims the core's instruction slot and executes the instruction.
func (r *RSUReconfig) issue(core int, op uint8, critical bool, done sim.Event) {
	o := &r.ops[core]
	if o.done.T != nil {
		panic(fmt.Sprintf("rts: RSU instruction on core %d while another is in flight", core))
	}
	o.critical = critical
	o.done = done
	r.mach.Core(core).Exec(r.opCycles, 0, sim.Event{T: o, Op: op})
}

// Fire implements sim.Target: the instruction retired, so notify the
// unit and hand control back to the runtime.
func (o *rsuOp) Fire(op uint8) {
	if op == opRSUStart {
		o.r.unit.StartTask(o.core, o.critical)
	} else {
		o.r.unit.EndTask(o.core)
	}
	done := o.done
	o.done = sim.Event{}
	done.Fire()
}
