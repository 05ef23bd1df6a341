// Package tdg implements the task dependence graph at the heart of the
// task-based programming model (§II-A): tasks with in/out data
// dependences, OmpSs-style RAW/WAR/WAW edge resolution, ready tracking,
// and the incremental bottom-level computation used by dynamic
// criticality estimation (§II-B, [24]).
//
// The package also speaks Graphviz DOT in both directions: WriteDOT
// renders a graph for inspection (the paper's Figure 1 view) with
// machine-readable cost attributes embedded, and ReadDOT parses those
// files — or plain hand-written digraphs — back into tasks, which is how
// external TDGs enter the simulator via the "dot" workload.
package tdg

import (
	"fmt"

	"cata/internal/sim"
)

// Token names a datum a task reads or writes. Workload generators allocate
// tokens; the graph resolves them into dependence edges.
type Token uint64

// TaskType describes a task construct in the program source — one
// `#pragma omp task` annotation site. Every execution of the type is a
// task instance (§II-A).
type TaskType struct {
	// Name identifies the type in reports (e.g. "compress", "rank").
	Name string
	// Criticality is the static annotation from the paper's proposed
	// `criticality(c)` clause: 0 is non-critical, higher values are more
	// critical (§II-B).
	Criticality int
}

// State is a task's lifecycle position.
type State int

const (
	// Waiting: submitted, some dependences unresolved.
	Waiting State = iota
	// Ready: all dependences resolved, queued for scheduling.
	Ready
	// Running: dispatched to a core.
	Running
	// Done: finished; output dependences released.
	Done
)

// String returns the lifecycle state name.
func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Task is one task instance. The work fields describe its execution cost
// on the machine model: CPUCycles scale with core frequency, MemTime does
// not, and IOTime is spent halted in a blocking kernel service (§V-D).
type Task struct {
	ID   int
	Type *TaskType

	CPUCycles int64
	MemTime   sim.Time
	IOTime    sim.Time

	// Critical is decided by the criticality estimator when the task is
	// dispatched (static annotations or bottom-level).
	Critical bool

	// BottomLevel is the length of the longest dependence path from this
	// task to a leaf of the currently known TDG (Figure 1). Maintained
	// incrementally by the graph.
	BottomLevel int64

	state State
	inst  *Instance // the DAG instance the task belongs to
	node  int32     // the task's index in inst
	nsucc int32     // successors released at Complete
	nwait int       // unfinished predecessor count
	mark  uint64    // graph-epoch stamp for the raise walk's frontier dedup

	// Timeline bookkeeping, filled by the runtime.
	SubmittedAt sim.Time
	ReadyAt     sim.Time
	StartedAt   sim.Time
	EndedAt     sim.Time
	Core        int
}

// State returns the task's lifecycle state.
func (t *Task) State() State { return t.state }

// Instance returns the DAG instance the task belongs to, nil for a task
// built outside one.
func (t *Task) Instance() *Instance { return t.inst }

// Preds returns the task's static predecessors in its program's DAG, in
// discovery order. This includes predecessors that had already completed
// when the task was submitted, which it never waited on. The slice is
// freshly allocated.
func (t *Task) Preds() []*Task {
	if t.inst == nil {
		return nil
	}
	return t.inst.tasksAt(t.inst.dag.Preds(int(t.node)))
}

// Succs returns the successors that waited on the task, in program
// order: for a completed task, those it released at Complete; for a live
// one, every successor submitted so far. The slice is freshly allocated.
func (t *Task) Succs() []*Task {
	if t.inst == nil {
		return nil
	}
	succs := t.inst.dag.Succs(int(t.node))
	n := int(t.nsucc)
	if t.state != Done {
		n = 0
		for n < len(succs) && succs[n] < t.inst.submitted {
			n++
		}
	}
	return t.inst.tasksAt(succs[:n])
}

// Duration returns the task's execution time at frequency f, excluding
// IOTime: cycles at f plus the frequency-invariant memory time.
func (t *Task) Duration(f sim.Hertz) sim.Time {
	return sim.Cycles(t.CPUCycles, f) + t.MemTime
}

// String renders the task with its type, bottom level and state.
func (t *Task) String() string {
	name := "?"
	if t.Type != nil {
		name = t.Type.Name
	}
	return fmt.Sprintf("task %d (%s, bl=%d, %s)", t.ID, name, t.BottomLevel, t.state)
}
