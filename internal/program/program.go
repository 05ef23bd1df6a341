// Package program defines the executable form of a task-parallel
// application: an ordered list of task creations and barriers, as emitted
// by the master thread of an OmpSs/OpenMP 4.0 program (§II-A). Workload
// generators (internal/workloads) produce Programs; the runtime
// (internal/rts) executes them. WriteJSON and ReadJSON serialize a
// Program as a portable JSON trace that round-trips bit-exactly, the
// interchange format behind trace export and replay.
package program

import (
	"fmt"

	"cata/internal/sim"
	"cata/internal/tdg"
)

// TaskSpec describes one task instance to be created: its type (the
// annotation site, carrying the static criticality), its execution cost on
// the machine model, and its data dependences.
type TaskSpec struct {
	Type      *tdg.TaskType
	CPUCycles int64
	MemTime   sim.Time
	IOTime    sim.Time
	Ins, Outs []tdg.Token
}

// Item is one step of the master thread: either a task creation or a
// barrier (taskwait), which blocks creation until every previously created
// task has completed.
type Item struct {
	Task    *TaskSpec
	Barrier bool
}

// Program is a whole application: its name and the master thread's
// creation sequence.
type Program struct {
	Name  string
	Items []Item
	// specs is the chunk AddTask stores task specs in; its items point
	// into it. A full chunk is left to the items that point into it and
	// a new one started, so adding a task never moves an earlier one.
	specs []TaskSpec
}

// Task spec chunks grow with the program, from minSpecChunk specs to at
// most maxSpecChunk, so a small program wastes little and a large one
// allocates once per maxSpecChunk tasks.
const (
	minSpecChunk = 8
	maxSpecChunk = 1024
)

// AddTask appends a task creation.
func (p *Program) AddTask(spec TaskSpec) {
	if len(p.specs) == cap(p.specs) {
		p.specs = make([]TaskSpec, 0, min(max(len(p.Items), minSpecChunk), maxSpecChunk))
	}
	p.specs = append(p.specs, spec)
	p.Items = append(p.Items, Item{Task: &p.specs[len(p.specs)-1]})
}

// Grow makes room for tasks more task creations and barriers more
// barriers, so a builder that knows its program's size allocates its
// items and task specs once.
func (p *Program) Grow(tasks, barriers int) {
	if n := len(p.Items) + tasks + barriers; n > cap(p.Items) {
		items := make([]Item, len(p.Items), n)
		copy(items, p.Items)
		p.Items = items
	}
	if cap(p.specs)-len(p.specs) < tasks {
		p.specs = make([]TaskSpec, 0, tasks)
	}
}

// AddBarrier appends a taskwait.
func (p *Program) AddBarrier() {
	p.Items = append(p.Items, Item{Barrier: true})
}

// Tasks returns the number of task creations.
func (p *Program) Tasks() int {
	n := 0
	for _, it := range p.Items {
		if it.Task != nil {
			n++
		}
	}
	return n
}

// Barriers returns the number of barriers.
func (p *Program) Barriers() int {
	n := 0
	for _, it := range p.Items {
		if it.Barrier {
			n++
		}
	}
	return n
}

// TotalWork returns the aggregate task duration at the given frequency
// (ignoring IO), a lower bound on core-seconds of computation.
func (p *Program) TotalWork(f sim.Hertz) sim.Time {
	var w sim.Time
	for _, it := range p.Items {
		if it.Task != nil {
			w += sim.Cycles(it.Task.CPUCycles, f) + it.Task.MemTime
		}
	}
	return w
}

// Validate reports structural errors: empty programs, items that are
// neither task nor barrier (or both), and tasks with negative work.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("program: missing name")
	}
	if p.Tasks() == 0 {
		return fmt.Errorf("program %s: no tasks", p.Name)
	}
	for i, it := range p.Items {
		switch {
		case it.Task == nil && !it.Barrier:
			return fmt.Errorf("program %s: item %d is neither task nor barrier", p.Name, i)
		case it.Task != nil && it.Barrier:
			return fmt.Errorf("program %s: item %d is both task and barrier", p.Name, i)
		case it.Task != nil:
			t := it.Task
			if t.Type == nil {
				return fmt.Errorf("program %s: item %d has no task type", p.Name, i)
			}
			if t.CPUCycles < 0 || t.MemTime < 0 || t.IOTime < 0 {
				return fmt.Errorf("program %s: item %d has negative work", p.Name, i)
			}
			if t.CPUCycles == 0 && t.MemTime == 0 && t.IOTime == 0 {
				return fmt.Errorf("program %s: item %d is an empty task", p.Name, i)
			}
		}
	}
	return nil
}
