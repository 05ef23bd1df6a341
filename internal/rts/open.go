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
	cfg OpenConfig
	// schedule and build are the injected arrivals. Only the next
	// arrival, schedule[next], is queued in the engine; it fires under
	// sequence number seq+next, reserved with the rest at Inject, and
	// queues the one after it.
	schedule []sim.Time
	build    func(job int) (*program.Program, error)
	next     int
	seq      uint64
	inSystem int // admitted, not yet completed jobs
	// compiler resolves each admitted job's dependences into the job's
	// own DAG, reusing its scratch from one admission to the next.
	compiler program.Compiler
	// err is the first admission failure; it stops the run.
	err error
}

// pending returns the number of injected arrivals not yet delivered.
func (o *openState) pending() int { return len(o.schedule) - o.next }

// openJob is one admitted job: a compiled program stepped through
// phase by phase. Consecutive tasks are submitted together at phase
// start (the whole sub-DAG enters the TDG; dependences pace execution);
// a barrier item ends the phase, and the next phase starts when every
// in-flight task of this job has completed.
//
// A job's state lives exactly as long as the job. It owns its DAG and
// its task slab (one DAG instance, whose Owner is the job, so a task
// leads back to its job), so its tasks depend only on each other and
// never on another job's, even one built from the same template. When
// the last task completes, nothing the runtime keeps points at the job
// any more.
type openJob struct {
	id      int
	items   []program.Item
	next    int // next program item to process
	live    int // submitted-but-unfinished tasks of this job
	arrived sim.Time
	inst    tdg.Instance
}

// Inject queues the run's arrivals: job i arrives at schedule[i], which
// must be nonnegative and nondecreasing, and is echoed to callbacks and
// errors as its job ID. It must be called once, after New and before
// Run, on a runtime configured with Config.Open. The runtime reads
// schedule during the run; the caller must not modify it.
//
// build(i) produces job i's program when the job is admitted; a shed
// arrival builds nothing. The program is compiled (and so validated) at
// admission. A build or compile error stops the run, and Run returns it
// naming the job.
//
// However many arrivals there are, one is queued at a time: each queues
// the next when it fires. Their order among same-time events is still
// the order of this call, because Inject reserves their engine sequence
// numbers here.
func (r *Runtime) Inject(schedule []sim.Time, build func(job int) (*program.Program, error)) error {
	o := r.open
	switch {
	case o == nil:
		return fmt.Errorf("rts: Inject on a closed-system runtime")
	case build == nil:
		return fmt.Errorf("rts: Inject with nil build function")
	case o.build != nil:
		return fmt.Errorf("rts: Inject called twice")
	}
	for i, at := range schedule {
		switch {
		case at < 0:
			return fmt.Errorf("rts: Inject: arrival %d at negative time %v", i, at)
		case i > 0 && at < schedule[i-1]:
			return fmt.Errorf("rts: Inject: arrival %d at %v precedes arrival %d at %v", i, at, i-1, schedule[i-1])
		}
	}
	o.schedule, o.build = schedule, build
	o.seq = r.eng.Reserve(len(schedule))
	if len(schedule) > 0 {
		r.eng.AtReserved(schedule[0], o.seq, sim.Event{T: r, Op: opArrive})
	}
	return nil
}

// openArrive delivers the next arrival, after queueing the one behind
// it: admit (build the job and submit its first phase) or shed against
// the in-system cap.
func (r *Runtime) openArrive() {
	o := r.open
	jobID := o.next
	o.next++
	if o.next < len(o.schedule) {
		r.eng.AtReserved(o.schedule[o.next], o.seq+uint64(o.next), sim.Event{T: r, Op: opArrive})
	}
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
	prog, err := o.build(jobID)
	if err == nil && prog == nil {
		err = fmt.Errorf("build returned no program")
	}
	var c *program.Compiled
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
	j.inst.Owner = j
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
	j.live++
	visited := r.graph.Submit(t) // may fire onTaskReady synchronously
	r.submitVisited += int64(visited)
}

// openTaskDone accounts one task completion against its job, advancing
// the job past a drained phase boundary (or to completion).
func (r *Runtime) openTaskDone(t *tdg.Task) {
	j := t.Instance().Owner.(*openJob)
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
	return o.pending() == 0 && o.inSystem == 0 && r.graph.AllDone()
}
