package rts

// Open-system mode: instead of one master thread creating tasks from a
// single Program (the closed-system model of the paper's experiments),
// whole task DAGs — jobs — arrive over simulated time and are injected
// into one shared running machine. The arrival schedule is computed by
// the caller (internal/opensys) before Run; the runtime's job here is
// admission, per-job dependence isolation, per-job barrier phasing, and
// the open-system termination condition.
//
// Everything in this file is reachable only when Config.Open is set:
// closed-system runs take none of these paths and their event streams
// stay bit-identical.

import (
	"fmt"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// OpenConfig turns a runtime into an open-system machine shared by
// arriving jobs. Config.Program must be nil when Open is set; the
// programs arrive through Runtime.Inject instead.
type OpenConfig struct {
	// MaxInSystem bounds concurrently in-system jobs: an arrival finding
	// the system full is shed (it never enters the TDG) and reported via
	// OnShed. Zero means unlimited admission.
	MaxInSystem int
	// OnAdmit, when non-nil, observes each admitted job at its arrival
	// time.
	OnAdmit func(jobID int, at sim.Time)
	// OnShed, when non-nil, observes each arrival dropped by the
	// MaxInSystem cap.
	OnShed func(jobID int, at sim.Time)
	// OnDone, when non-nil, observes each job completion with its arrival
	// and completion times (response time = done - arrived).
	OnDone func(jobID int, arrived, done sim.Time)
}

// openState is the runtime's open-mode bookkeeping, nil for closed runs.
type openState struct {
	cfg      OpenConfig
	pending  int // arrivals injected but not yet delivered by the engine
	inSystem int // admitted, not yet completed jobs
	taskJob  map[*tdg.Task]*openJob
	// compiler resolves each admitted job's dependences into the job's
	// own DAG, reusing its scratch from one admission to the next.
	compiler program.Compiler
	// err is the first admission failure; it stops the run.
	err error
}

// openJob is one admitted job: a compiled program stepped through
// phase by phase. Consecutive tasks are submitted together at phase
// start (the whole sub-DAG enters the TDG; dependences pace execution);
// a barrier item ends the phase, and the next phase starts when every
// in-flight task of this job has completed.
//
// A job's state lives exactly as long as the job. It owns its DAG and
// its task slab (one DAG instance), so its tasks depend only on each
// other and never on another job's, even one built from the same
// template. When the last task completes, nothing the runtime keeps
// points at the job any more.
type openJob struct {
	id      int
	items   []program.Item
	next    int // next program item to process
	live    int // submitted-but-unfinished tasks of this job
	arrived sim.Time
	inst    tdg.Instance
}

// Inject schedules one job arrival at the given simulated time. It must
// be called after New and before Run, on a runtime configured with
// Config.Open. Job IDs are caller-chosen and only echoed to callbacks
// and errors.
//
// build produces the job's program when the job is admitted; a shed
// arrival builds nothing. The program is compiled (and so validated) at
// admission. A build or compile error stops the run, and Run returns it
// naming the job.
func (r *Runtime) Inject(at sim.Time, jobID int, build func() (*program.Program, error)) error {
	if r.open == nil {
		return fmt.Errorf("rts: Inject on a closed-system runtime")
	}
	if build == nil {
		return fmt.Errorf("rts: Inject with nil build function")
	}
	r.open.pending++
	r.eng.At(at, func() { r.openArrive(jobID, build) })
	return nil
}

// openArrive delivers one arrival: admit (build the job and submit its
// first phase) or shed against the in-system cap.
func (r *Runtime) openArrive(jobID int, build func() (*program.Program, error)) {
	o := r.open
	o.pending--
	now := r.eng.Now()
	if o.cfg.MaxInSystem > 0 && o.inSystem >= o.cfg.MaxInSystem {
		if o.cfg.OnShed != nil {
			o.cfg.OnShed(jobID, now)
		}
		// The last arrival may be shed while nothing is running — no task
		// completion would ever check the finish condition.
		if r.openFinished() {
			r.finish()
		}
		return
	}
	prog, err := build()
	var c *program.Compiled
	if err == nil && prog == nil {
		err = fmt.Errorf("build returned no program")
	}
	if err == nil {
		c, err = o.compiler.Compile(prog)
	}
	if err != nil {
		o.err = fmt.Errorf("job %d: %w", jobID, err)
		r.eng.Stop()
		return
	}
	o.inSystem++
	if o.cfg.OnAdmit != nil {
		o.cfg.OnAdmit(jobID, now)
	}
	j := &openJob{id: jobID, items: prog.Items, arrived: now}
	j.inst.Init(c.DAG())
	r.openAdvance(j)
}

// openAdvance submits program items until the job blocks on a barrier
// with tasks still in flight, or runs out of items (job done once its
// last task completes).
func (r *Runtime) openAdvance(j *openJob) {
	for j.next < len(j.items) {
		it := j.items[j.next]
		if it.Barrier {
			if j.live > 0 {
				return // phase boundary: resume when this job drains
			}
			j.next++
			continue
		}
		j.next++
		r.openSubmit(j, it.Task)
	}
	if j.live == 0 {
		r.openJobDone(j)
	}
}

// openSubmit submits the job's next task to the shared graph. This
// mirrors creatorStep's task creation but charges no creator cycles:
// arrivals are generated off-machine by the traffic source, not by a
// simulated master thread.
func (r *Runtime) openSubmit(j *openJob, spec *program.TaskSpec) {
	t := j.inst.Next()
	r.fillTask(t, spec)
	r.open.taskJob[t] = j
	j.live++
	visited := r.graph.Submit(t) // may fire onTaskReady synchronously
	r.submitVisited += int64(visited)
}

// openTaskDone accounts one task completion against its job, advancing
// the job past a drained phase boundary (or to completion).
func (r *Runtime) openTaskDone(t *tdg.Task) {
	o := r.open
	j := o.taskJob[t]
	delete(o.taskJob, t)
	j.live--
	if j.live == 0 {
		r.openAdvance(j)
	}
}

// openJobDone accounts a completed job.
func (r *Runtime) openJobDone(j *openJob) {
	o := r.open
	o.inSystem--
	if o.cfg.OnDone != nil {
		o.cfg.OnDone(j.id, j.arrived, r.eng.Now())
	}
}

// openFinished is the open-system termination condition: every injected
// arrival has been delivered, no job is in the system, and the shared
// graph has drained.
func (r *Runtime) openFinished() bool {
	o := r.open
	return o.pending == 0 && o.inSystem == 0 && r.graph.AllDone()
}
