package rts

import (
	"fmt"

	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/tdg"
)

// Reconfigurer is the runtime's hook into a hardware-reconfiguration
// mechanism. TaskStart is invoked after a task is dispatched to a core and
// before its body executes; TaskEnd after the body finishes. done must be
// called exactly once when the runtime may proceed; any time consumed in
// between is reconfiguration overhead on the task's critical path (§V-C).
type Reconfigurer interface {
	Name() string
	TaskStart(core int, t *tdg.Task, done func())
	TaskEnd(core int, t *tdg.Task, done func())
}

// NoReconfig is the null mechanism used by FIFO, CATS and TurboMode
// configurations (TurboMode reacts to C-state edges, not task events).
type NoReconfig struct{}

// Name implements Reconfigurer.
func (NoReconfig) Name() string { return "none" }

// TaskStart implements Reconfigurer.
func (NoReconfig) TaskStart(_ int, _ *tdg.Task, done func()) { done() }

// TaskEnd implements Reconfigurer.
func (NoReconfig) TaskEnd(_ int, _ *tdg.Task, done func()) { done() }

// RSMReconfig drives CATA's software reconfiguration module: every task
// start/end runs the §III-A algorithm under the runtime lock, paying the
// cpufreq software path on the calling core.
type RSMReconfig struct{ RSM *rsm.RSM }

// Name implements Reconfigurer.
func (r RSMReconfig) Name() string { return "rsm" }

// TaskStart implements Reconfigurer.
func (r RSMReconfig) TaskStart(core int, t *tdg.Task, done func()) {
	r.RSM.TaskStart(core, t.Critical, done)
}

// TaskEnd implements Reconfigurer.
func (r RSMReconfig) TaskEnd(core int, _ *tdg.Task, done func()) {
	r.RSM.TaskEnd(core, done)
}

// TaskUnit is the hardware-side contract of an RSU-like unit: task
// start/end notifications that reconfigure DVFS in hardware. Both the
// paper's two-level RSU and the multi-level extension satisfy it.
type TaskUnit interface {
	StartTask(core int, critical bool)
	EndTask(core int)
}

// RSUReconfig drives a hardware task unit: the runtime executes one
// rsu_start_task/rsu_end_task instruction (a few cycles on the calling
// core); decision and DVFS programming happen in hardware. Build it with
// NewRSUReconfig: each core's instruction in flight is a preallocated
// continuation, and a core issues one at a time.
type RSUReconfig struct {
	unit     TaskUnit
	mach     *machine.Machine
	opCycles int64
	ops      []rsuOp
}

// rsuOp is one core's RSU instruction in flight.
type rsuOp struct {
	r        *RSUReconfig
	core     int
	busy     bool
	critical bool
	done     func()

	startCb func() // rsu_start_task retired: notify the unit
	endCb   func() // rsu_end_task retired: notify the unit
}

// NewRSUReconfig returns the runtime's driver for unit on mach, charging
// opCycles per instruction.
func NewRSUReconfig(unit TaskUnit, mach *machine.Machine, opCycles int64) *RSUReconfig {
	r := &RSUReconfig{unit: unit, mach: mach, opCycles: opCycles, ops: make([]rsuOp, mach.Cores())}
	for i := range r.ops {
		o := &r.ops[i]
		o.r = r
		o.core = i
		o.startCb = o.started
		o.endCb = o.ended
	}
	return r
}

// Name implements Reconfigurer.
func (r *RSUReconfig) Name() string { return "rsu" }

// TaskStart implements Reconfigurer.
func (r *RSUReconfig) TaskStart(core int, t *tdg.Task, done func()) {
	o := r.begin(core, done)
	o.critical = t.Critical
	r.mach.Core(core).Exec(r.opCycles, 0, o.startCb)
}

// TaskEnd implements Reconfigurer.
func (r *RSUReconfig) TaskEnd(core int, _ *tdg.Task, done func()) {
	r.mach.Core(core).Exec(r.opCycles, 0, r.begin(core, done).endCb)
}

// begin claims the core's instruction slot.
func (r *RSUReconfig) begin(core int, done func()) *rsuOp {
	o := &r.ops[core]
	if o.busy {
		panic(fmt.Sprintf("rts: RSU instruction on core %d while another is in flight", core))
	}
	o.busy = true
	o.done = done
	return o
}

func (o *rsuOp) started() {
	o.r.unit.StartTask(o.core, o.critical)
	o.finish()
}

func (o *rsuOp) ended() {
	o.r.unit.EndTask(o.core)
	o.finish()
}

func (o *rsuOp) finish() {
	done := o.done
	o.done = nil
	o.busy = false
	done()
}
