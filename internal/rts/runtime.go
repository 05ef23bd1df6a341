package rts

import (
	"fmt"

	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/program"
	"cata/internal/sched"
	"cata/internal/sim"
	"cata/internal/stats"
	"cata/internal/tdg"
)

// queueSamplePeriod is the ready-queue sampling cadence while a probe
// recorder is attached: fine enough to show queue breathing around
// barriers at the experiments' scales, coarse enough to stay a small
// fraction of recorded events.
const queueSamplePeriod = 50 * sim.Microsecond

// Config assembles a runtime. NewScheduler receives the runtime itself as
// sched.CoreInfo (core classes and idle information), breaking the
// construction cycle between scheduler and runtime.
type Config struct {
	Machine *machine.Machine
	// Program is the compiled program a closed-system run executes. It
	// is only read, so one Compiled may back many runtimes at once.
	Program      *program.Compiled
	NewScheduler func(info sched.CoreInfo) sched.Scheduler
	Estimator    sched.Estimator
	Reconfig     Reconfigurer
	Options      Options
	// Recorder, when non-nil, receives task lifecycle events and the
	// periodic ready-queue samples (the runtime's share of the flight
	// recorder). Recording is a pure observation: makespans and every
	// other result are bit-identical with and without it.
	Recorder probe.Recorder
	// Open, when non-nil, switches the runtime to open-system mode: jobs
	// arrive over time via Runtime.Inject instead of a single master
	// thread stepping through Program, which must then be nil. See
	// OpenConfig.
	Open *OpenConfig
}

// Result summarizes one run.
type Result struct {
	// Makespan is the simulated time at which the last task completed
	// (the paper's execution time of the parallel section).
	Makespan sim.Time
	// TasksRun is the number of executed tasks.
	TasksRun int64
	// CriticalTasks is the number of tasks estimated critical at
	// dispatch time.
	CriticalTasks int64
	// SubmitVisited is the total number of TDG nodes visited during
	// submissions (the bottom-level estimator's exploration volume).
	SubmitVisited int64
	// StaticBindingEvents counts times a fast core went idle while a
	// critical task ran on a slow core (§II-C's static binding problem).
	StaticBindingEvents int64
	// ReadyWait summarizes ready-to-start latency per task.
	ReadyWait stats.DurationSummary
}

// Runtime executes a Program on a Machine under a scheduling policy and an
// optional reconfiguration mechanism. One Runtime runs one Program once.
type Runtime struct {
	eng      *sim.Engine
	mach     *machine.Machine
	prog     *program.Compiled
	items    []program.Item // prog's creation sequence
	schedq   sched.Scheduler
	est      sched.Estimator
	reconfig Reconfigurer
	opts     Options
	rec      probe.Recorder
	critq    sched.CritQueue // non-nil when schedq splits by criticality
	pinned   sched.Pinned    // non-nil when schedq binds tasks to cores

	graph *tdg.Graph
	// idle indexes the cores currently in the runtime idle set; critRunning
	// indexes the cores currently running a critical task. Together they
	// replace the linear idle[]/running[] scans on the wake and go-idle
	// paths.
	idle        *coreSet
	critRunning *coreSet
	percore     []coreRun
	wakeCursor  int

	// inst is the closed run's task slab, instantiated from prog's DAG.
	inst        tdg.Instance
	creatorNext int
	creatorDone bool
	nextTaskID  int

	// open is the open-system state; nil for closed-system runs, which
	// keeps every open-mode branch off the closed hot paths.
	open *openState

	finished bool
	timedOut bool
	makespan sim.Time

	tasksRun      int64
	critTasks     int64
	staticBinding int64
	readyWait     stats.DurationSummary
	submitVisited int64
	retained      []*tdg.Task
}

// Runtime ops: the runtime's own timers.
const (
	opSample    uint8 = iota // periodic ready-queue probe
	opTimeout                // MaxSimTime reached
	opOpenCheck              // t=0 finish check of an open run
	opArrive                 // the next open-system arrival
)

// coreRun is one core's dispatch pipeline state. It is the target of
// every stage event the runtime hands to the machine or the
// reconfigurer, so dispatching a task allocates nothing no matter how
// many events it schedules.
type coreRun struct {
	r    *Runtime
	core int
	task *tdg.Task // task currently owned by this core's pipeline
}

// coreRun stages.
const (
	opWorker     uint8 = iota // enter workerLoop
	opDispatched              // scheduler cost paid -> reconfig TaskStart
	opStartBody               // reconfiguration done -> start the task body
	opBodyDone                // body finished -> optional IO halt -> complete
	opComplete                // IO done -> complete bookkeeping
	opEnded                   // reconfig TaskEnd done -> completion cost
	opFinished                // completion cost paid -> release successors, loop
)

// New builds a runtime from the configuration.
func New(eng *sim.Engine, cfg Config) (*Runtime, error) {
	if cfg.Machine == nil || cfg.NewScheduler == nil || cfg.Estimator == nil {
		return nil, fmt.Errorf("rts: incomplete config (machine/program/scheduler/estimator required)")
	}
	if cfg.Open != nil {
		if cfg.Program != nil {
			return nil, fmt.Errorf("rts: open-system config must not carry a Program (jobs arrive via Inject)")
		}
	} else {
		if cfg.Program == nil {
			return nil, fmt.Errorf("rts: incomplete config (machine/program/scheduler/estimator required)")
		}
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	if cfg.Reconfig == nil {
		cfg.Reconfig = NoReconfig{}
	}
	r := &Runtime{
		eng:         eng,
		mach:        cfg.Machine,
		prog:        cfg.Program,
		est:         cfg.Estimator,
		reconfig:    cfg.Reconfig,
		opts:        cfg.Options,
		rec:         cfg.Recorder,
		idle:        newCoreSet(cfg.Machine.Cores()),
		critRunning: newCoreSet(cfg.Machine.Cores()),
	}
	if cfg.Open != nil {
		// No master thread: core 0 is an ordinary worker and the creator
		// is permanently done.
		r.creatorDone = true
		r.open = &openState{cfg: *cfg.Open}
	} else {
		r.items = cfg.Program.Program().Items
		r.inst.Init(cfg.Program.DAG())
	}
	r.percore = make([]coreRun, cfg.Machine.Cores())
	for i := range r.percore {
		r.percore[i] = coreRun{r: r, core: i}
	}
	r.graph = tdg.New(r.onTaskReady)
	r.schedq = cfg.NewScheduler(r)
	if r.schedq == nil {
		return nil, fmt.Errorf("rts: NewScheduler returned nil")
	}
	if r.rec != nil {
		if cq, ok := r.schedq.(sched.CritQueue); ok {
			r.critq = cq
		}
	}
	if pq, ok := r.schedq.(sched.Pinned); ok {
		r.pinned = pq
	}
	return r, nil
}

// Graph exposes the task dependence graph (read-only use).
func (r *Runtime) Graph() *tdg.Graph { return r.graph }

// Scheduler exposes the scheduling policy for statistics harvesting.
func (r *Runtime) Scheduler() sched.Scheduler { return r.schedq }

// Tasks returns every submitted task in submission order. Empty unless
// Options.RetainTasks was set.
func (r *Runtime) Tasks() []*tdg.Task { return r.retained }

// IsFast implements sched.CoreInfo against the machine's committed core
// classes (static in the FIFO/CATS experiments).
func (r *Runtime) IsFast(core int) bool { return r.mach.IsFastCore(core) }

// AnyFastIdle implements sched.CoreInfo: whether any fast core is in the
// runtime's idle set (CATS's stealing guard, §II-C). Only idle cores are
// examined; core classes stay a live query because CATA reconfigures them
// mid-run.
func (r *Runtime) AnyFastIdle() bool {
	for i := r.idle.next(0); i >= 0; i = r.idle.next(i + 1) {
		if r.mach.IsFastCore(i) {
			return true
		}
	}
	return false
}

// Run executes the program to completion and returns the result. It
// drives the engine; the caller finalizes energy via the machine's meter
// afterwards (the clock stops at the makespan).
func (r *Runtime) Run() (Result, error) {
	for i := 0; i < r.mach.Cores(); i++ {
		r.eng.At(0, r.worker(i))
	}
	if r.opts.MaxSimTime > 0 {
		r.eng.At(r.opts.MaxSimTime, sim.Event{T: r, Op: opTimeout})
	}
	if r.rec != nil {
		// The sampler is scheduled only while a recorder is attached —
		// it is read-only, so task timing is unchanged, and with no
		// recorder the event queue is bit-identical to the unprobed run.
		r.eng.After(queueSamplePeriod, sim.Event{T: r, Op: opSample})
	}
	if r.open != nil {
		// Degenerate open runs (every arrival shed before t=0, or none
		// injected) would otherwise never reach a completion-side finish
		// check. Open-mode only: closed runs add no extra event.
		r.eng.At(0, sim.Event{T: r, Op: opOpenCheck})
	}
	r.eng.Run()

	switch {
	case r.open != nil && r.open.err != nil:
		return Result{}, fmt.Errorf("rts: open-system %w", r.open.err)
	case r.timedOut && r.open != nil:
		return Result{}, fmt.Errorf("rts: open-system run exceeded MaxSimTime %v (pending=%d in-system=%d live=%d ready=%d)",
			r.opts.MaxSimTime, r.open.pending(), r.open.inSystem, r.graph.Live(), r.schedq.Len())
	case r.timedOut:
		return Result{}, fmt.Errorf("rts: %s exceeded MaxSimTime %v (live=%d ready=%d)",
			r.prog.Name(), r.opts.MaxSimTime, r.graph.Live(), r.schedq.Len())
	case !r.finished && r.open != nil:
		return Result{}, fmt.Errorf("rts: open-system run deadlocked: pending=%d in-system=%d, %d live, %d ready",
			r.open.pending(), r.open.inSystem, r.graph.Live(), r.schedq.Len())
	case !r.finished:
		return Result{}, fmt.Errorf("rts: %s deadlocked: creator at %d/%d, %d live, %d ready",
			r.prog.Name(), r.creatorNext, len(r.items), r.graph.Live(), r.schedq.Len())
	}
	return Result{
		Makespan:            r.makespan,
		TasksRun:            r.tasksRun,
		CriticalTasks:       r.critTasks,
		SubmitVisited:       r.submitVisited,
		StaticBindingEvents: r.staticBinding,
		ReadyWait:           r.readyWait,
	}, nil
}

// Fire implements sim.Target: one of the runtime's own timers fired.
func (r *Runtime) Fire(op uint8) {
	switch op {
	case opSample:
		// The periodic ready-queue probe: the scheduler's depth (and the
		// critical share when the policy splits queues), re-armed until
		// the run finishes.
		if r.finished || r.timedOut {
			return
		}
		crit := 0
		if r.critq != nil {
			crit = r.critq.CritLen()
		}
		r.rec.QueueDepth(r.eng.Now(), r.schedq.Len(), crit)
		r.eng.After(queueSamplePeriod, sim.Event{T: r, Op: opSample})
	case opTimeout:
		if !r.finished {
			r.timedOut = true
			r.eng.Stop()
		}
	case opOpenCheck:
		if !r.finished && r.openFinished() {
			r.finish()
		}
	case opArrive:
		r.openArrive()
	}
}

// worker is the event that enters core's scheduling loop.
func (r *Runtime) worker(core int) sim.Event {
	return sim.Event{T: &r.percore[core], Op: opWorker}
}

// workerLoop is each core's scheduling loop entry: run the master thread
// (core 0, when runnable), else dequeue and dispatch a task, else idle.
func (r *Runtime) workerLoop(core int) {
	if r.finished {
		return
	}
	if core == 0 && r.creatorRunnable() {
		r.creatorStep()
		return
	}
	t := r.schedq.Dequeue(core)
	if t == nil {
		r.goIdle(core)
		return
	}
	r.dispatch(core, t)
}

// creatorRunnable reports whether the master thread can make progress:
// not finished, not blocked on a barrier, not throttled.
func (r *Runtime) creatorRunnable() bool {
	if r.creatorDone {
		return false
	}
	it := r.items[r.creatorNext]
	if it.Barrier {
		return r.graph.AllDone()
	}
	if r.opts.ThrottleWindow > 0 && r.graph.Live() >= r.opts.ThrottleWindow {
		return false
	}
	return true
}

// creatorStep executes one master-thread item on core 0.
func (r *Runtime) creatorStep() {
	it := r.items[r.creatorNext]
	r.creatorNext++
	if r.creatorNext == len(r.items) {
		r.creatorDone = true
	}
	if it.Barrier {
		// Barriers are only stepped over once satisfied; popping is free.
		if r.creatorDone && r.graph.AllDone() {
			r.finish()
			return
		}
		r.workerLoop(0)
		return
	}
	t := r.inst.Next()
	r.fillTask(t, it.Task)
	visited := r.graph.Submit(t) // may fire onTaskReady synchronously
	r.submitVisited += int64(visited)
	cost := r.opts.CreateCycles + r.est.SubmitCostCycles(visited)
	r.mach.Core(0).Exec(cost, 0, r.worker(0))
}

// fillTask stamps a slab task about to be submitted with its ID, its
// work from spec and its submission time.
func (r *Runtime) fillTask(t *tdg.Task, spec *program.TaskSpec) {
	t.ID = r.nextTaskID
	t.Type = spec.Type
	t.CPUCycles = spec.CPUCycles
	t.MemTime = spec.MemTime
	t.IOTime = spec.IOTime
	t.SubmittedAt = r.eng.Now()
	t.Core = -1
	r.nextTaskID++
	if r.opts.RetainTasks {
		r.retained = append(r.retained, t)
	}
}

// onTaskReady is the graph callback: estimate criticality, enqueue, and
// wake an idle core if one should pick the task up.
func (r *Runtime) onTaskReady(t *tdg.Task) {
	t.ReadyAt = r.eng.Now()
	r.est.Estimate(t, r.graph)
	if r.rec != nil {
		r.rec.TaskReady(t.ReadyAt, t)
	}
	r.schedq.Enqueue(t)
	r.wakeForTask(t)
}

// wakeForTask wakes at most one idle core for a newly ready task.
func (r *Runtime) wakeForTask(t *tdg.Task) {
	core := r.pickIdleCore(t)
	if core < 0 {
		return
	}
	r.wakeWorker(core)
}

func (r *Runtime) wakeWorker(core int) {
	r.idle.clear(core)
	r.mach.Core(core).Wake(r.worker(core))
}

// pickIdleCore selects which idle core to wake. A pinned scheduler
// (sched.Pinned — static mapping policies) overrides everything: only
// the task's bound core is a wake candidate. With ClassAwareWake
// (statically heterogeneous CATS machines) critical tasks prefer idle
// fast cores, falling back to any idle core; non-critical tasks take the
// next idle core round-robin — CATS lets fast cores pull from the LPRQ
// when the HPRQ is empty (§II-C), so holding non-critical work for slow
// cores would only add latency.
//
// The round-robin cursor matters for fidelity: always waking the lowest
// idle index would systematically favor low-numbered (fast) cores and
// make the criticality-blind baselines accidentally criticality-aware.
// Real runtimes wake whichever worker parked first; rotation is the
// neutral stand-in.
//
// The scans walk only the idle set's bits (circularly from the cursor),
// not every core, but visit candidates in exactly the rotation order the
// original linear scan used.
func (r *Runtime) pickIdleCore(t *tdg.Task) int {
	n := r.mach.Cores()
	if r.pinned != nil {
		// The task can only ever be served by its bound core: wake it if
		// idle; otherwise it will dequeue the task when it next finishes.
		if c := r.pinned.PinnedCore(t); c >= 0 && c < n && r.idle.has(c) {
			return c
		}
		return -1
	}
	cur := r.wakeCursor
	if r.opts.ClassAwareWake && t.Critical {
		for i := r.idle.next(cur); i >= 0; i = r.idle.next(i + 1) {
			if r.mach.IsFastCore(i) {
				r.wakeCursor = (i + 1) % n
				return i
			}
		}
		for i := r.idle.next(0); i >= 0 && i < cur; i = r.idle.next(i + 1) {
			if r.mach.IsFastCore(i) {
				r.wakeCursor = (i + 1) % n
				return i
			}
		}
	}
	if i := r.idle.nextWrap(cur); i >= 0 {
		r.wakeCursor = (i + 1) % n
		return i
	}
	return -1
}

func (r *Runtime) goIdle(core int) {
	r.idle.set(core)
	// §II-C "static binding": a fast core going idle while a critical
	// task is stuck on a slow core is exactly the situation a static
	// heterogeneous machine cannot fix and CATA's reconfiguration can.
	// Only cores currently running critical tasks are examined.
	if r.mach.IsFastCore(core) {
		for c := r.critRunning.next(0); c >= 0; c = r.critRunning.next(c + 1) {
			if !r.mach.IsFastCore(c) {
				r.staticBinding++
				break
			}
		}
	}
	r.mach.Core(core).Idle()
}

// dispatch runs one task on a core: scheduler cost, reconfiguration
// (TaskStart), body, optional IO halt, reconfiguration (TaskEnd),
// completion bookkeeping, then loop. The stages are the ops of the
// core's coreRun.
func (r *Runtime) dispatch(core int, t *tdg.Task) {
	cs := &r.percore[core]
	cs.task = t
	if r.rec != nil {
		r.rec.TaskDispatch(r.eng.Now(), t, core)
	}
	r.mach.Core(core).Exec(r.opts.DispatchCycles, 0, sim.Event{T: cs, Op: opDispatched})
}

// Fire implements sim.Target: it runs one stage of the core's pipeline.
func (cs *coreRun) Fire(stage uint8) {
	r, t, core := cs.r, cs.task, cs.core
	switch stage {
	case opWorker:
		r.workerLoop(core)
	case opDispatched:
		r.reconfig.TaskStart(core, t, sim.Event{T: cs, Op: opStartBody})
	case opStartBody:
		r.graph.Start(t)
		t.StartedAt = r.eng.Now()
		t.Core = core
		r.readyWait.ObserveTime(t.StartedAt - t.ReadyAt)
		if r.rec != nil {
			r.rec.TaskStart(t.StartedAt, t, core, t.StartedAt-t.ReadyAt)
		}
		if t.Critical {
			r.critTasks++
			r.critRunning.set(core)
		}
		r.mach.Core(core).Exec(t.CPUCycles, t.MemTime, sim.Event{T: cs, Op: opBodyDone})
	case opBodyDone:
		if t.IOTime > 0 {
			r.mach.Core(core).HaltFor(t.IOTime, sim.Event{T: cs, Op: opComplete})
			return
		}
		fallthrough
	case opComplete:
		t.EndedAt = r.eng.Now()
		if r.rec != nil {
			r.rec.TaskEnd(t.EndedAt, t, core)
		}
		r.critRunning.clear(core)
		r.reconfig.TaskEnd(core, t, sim.Event{T: cs, Op: opEnded})
	case opEnded:
		r.mach.Core(core).Exec(r.opts.CompleteCycles, 0, sim.Event{T: cs, Op: opFinished})
	case opFinished:
		r.graph.Complete(t) // releases successors; onTaskReady fires
		r.tasksRun++
		var done bool
		if r.open != nil {
			r.openTaskDone(t)
			done = r.openFinished()
		} else {
			r.maybeWakeCreator()
			done = r.creatorDone && r.graph.AllDone()
		}
		if done {
			r.finish()
			return
		}
		r.workerLoop(core)
	}
}

// maybeWakeCreator wakes core 0 when the master thread was blocked
// (barrier or throttle) and can now make progress.
func (r *Runtime) maybeWakeCreator() {
	if !r.creatorDone && r.creatorRunnable() && r.idle.has(0) {
		r.wakeWorker(0)
	}
}

func (r *Runtime) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.makespan = r.eng.Now()
	r.eng.Stop()
}
