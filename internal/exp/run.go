package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"cata/internal/energy"
	"cata/internal/opensys"
	"cata/internal/program"
	"cata/internal/rts"
	"cata/internal/sched"
	"cata/internal/sim"
	"cata/internal/trace"
	"cata/internal/workloads"
)

// RunSpec identifies one simulation: a workload under a policy with a
// fast-core budget on a machine. Its JSON form — the batch cache key
// and the spec echoed in cached measurements — carries the portable
// fields only: the in-memory Program and the Trace/Timeline writers
// cannot round-trip through a result cache, and specs carrying them
// are never cached (see cacheKey).
type RunSpec struct {
	// Workload is a workload spec resolved against the registry in
	// internal/workloads: a bare name ("dedup") or a parameterized spec
	// ("layered:seed=7,width=16,depth=32"). Ignored when Program is set.
	Workload string `json:"workload,omitempty"`
	// Program, when non-nil, is run directly instead of a named workload
	// (the public API's custom-workload path).
	Program *program.Program `json:"-"`
	// Policy is the system configuration.
	Policy Policy `json:"policy"`
	// FastCores is the power budget: the number of statically fast cores
	// (FIFO/CATS) or the maximum simultaneously accelerated cores
	// (CATA/RSU/TurboMode). The paper sweeps 8, 16, 24 on 32 cores.
	FastCores int `json:"fast_cores"`
	// Cores is the machine size (default 32).
	Cores int `json:"cores"`
	// Seed drives all workload randomness (default 42).
	Seed uint64 `json:"seed"`
	// Scale in (0,1] shrinks workload task counts (default 1.0).
	Scale float64 `json:"scale"`
	// MaxSimTime aborts runaway simulations (default 20 s simulated).
	MaxSimTime sim.Time `json:"max_sim_time"`
	// TransitionLatency overrides the DVFS transition latency (0 keeps
	// the Table I 25 µs). Used by the latency-sensitivity ablation.
	TransitionLatency sim.Time `json:"transition_latency,omitempty"`
	// Arrivals, when non-empty, switches the run to open-system traffic
	// mode: the workload becomes a per-job DAG template instantiated by
	// the arrival process the spec describes (see internal/opensys for
	// the grammar, e.g. "poisson:lambda=2000,jobs=40,deadline=5ms").
	// The harvested Measurement carries the response-time Report in
	// Open; Makespan is the time the last job drained. Omitted when
	// empty, so closed-system specs keep the cache keys they had before
	// open-system mode existed.
	Arrivals string `json:"arrivals,omitempty"`
	// Trace, when non-nil, receives the run's full flight recording as a
	// Chrome/Perfetto trace JSON document: task spans, per-core frequency
	// and power-vs-budget counter tracks, reconfiguration instants and
	// dependence flow arrows. Requesting a trace attaches the probe
	// recorder; results are bit-identical with and without it.
	Trace io.Writer `json:"-"`
	// Timeline, when non-nil, receives a per-core ASCII Gantt chart.
	Timeline io.Writer `json:"-"`
	// TimelineWidth is the ASCII chart width in columns (default 100).
	TimelineWidth int `json:"-"`
}

// withDefaults fills zero fields.
func (s RunSpec) withDefaults() RunSpec {
	if s.Policy == "" {
		s.Policy = FIFO
	}
	if s.Cores == 0 {
		s.Cores = 32
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if s.MaxSimTime == 0 {
		s.MaxSimTime = 20 * sim.Second
	}
	return s
}

// String renders the spec as workload/policy/fast for logs and errors,
// with the arrival process appended for open-system runs.
func (s RunSpec) String() string {
	if s.Arrivals != "" {
		return fmt.Sprintf("%s/%v/fast=%d/%s", s.Workload, s.Policy, s.FastCores, s.Arrivals)
	}
	return fmt.Sprintf("%s/%v/fast=%d", s.Workload, s.Policy, s.FastCores)
}

// Measurement is the harvested result of one run.
type Measurement struct {
	Spec     RunSpec
	Makespan sim.Time
	Joules   float64
	EDP      float64 // joule-seconds
	TasksRun int64

	// Scheduling behavior.
	CriticalTasks int64
	Inversions    int64 // critical tasks dispatched to slow cores
	Steals        int64 // slow-core HPRQ steals (CATS)
	StaticBinding int64 // fast core idled while critical ran slow (§II-C)

	// DVFS / reconfiguration behavior (§V-C).
	Transitions         int64    // physical V/f transitions
	ReconfigOps         int64    // RSM or RSU start/end operations
	ReconfigLatencyAvg  sim.Time // software op latency (CATA only)
	ReconfigLatencyMax  sim.Time
	LockWaitMax         sim.Time // worst RSM-lock acquisition (CATA only)
	DriverLockWaitMax   sim.Time // worst kernel cpufreq-lock wait
	ReconfigOverheadPct float64  // reconfiguration core-time / total core-time
	TurboReassigns      int64    // TurboMode halt-driven handoffs

	// Acceleration-decision accounting (CATA's RSM; granted also for RSU).
	AccelsGranted     int64   // accelerations granted
	AccelsDenied      int64   // task starts denied acceleration (budget exhausted)
	BudgetUtilization float64 // time-averaged accelerated cores / budget, in [0,1]

	// AvgUtilization is mean busy-time/makespan across cores in [0,1].
	AvgUtilization float64

	// Open carries the open-system traffic report (response-time
	// percentiles, deadline misses, shed counts); nil for closed runs.
	Open *opensys.Report
}

// programHolder carries the run's program — or, for open-system runs,
// the arrival-mode configuration that replaces it — into buildRig.
type programHolder struct {
	prog *program.Compiled
	// Open-system fields, all zero for closed runs.
	open *rts.OpenConfig
	// inject schedules the arrival events on the built runtime.
	inject func(*rts.Runtime) error
	// collect produces the open-system report after the run.
	collect *opensys.Collector
	// extraSimTime extends MaxSimTime by the arrival horizon so the
	// abort guard bounds drain time after the last arrival, not the
	// whole stream.
	extraSimTime sim.Time
}

// Run executes one simulation and harvests its measurement.
func Run(spec RunSpec) (Measurement, error) {
	spec = spec.withDefaults()
	if spec.Arrivals != "" {
		return runOpen(spec)
	}
	prog, err := buildProgram(spec)
	if err != nil {
		return Measurement{}, err
	}
	return runWith(spec, programHolder{prog: prog})
}

// buildProgram builds a closed run's program — the spec's own Program,
// or its workload generated for the spec's seed and scale — and
// compiles it. spec has defaults applied.
func buildProgram(spec RunSpec) (*program.Compiled, error) {
	prog := spec.Program
	if prog == nil {
		p, err := workloads.Build(spec.Workload, spec.Seed, spec.Scale)
		if err != nil {
			return nil, err
		}
		prog = p
	}
	return program.Compile(prog)
}

// runWith builds the rig for one (possibly open-system) run, executes
// it, and harvests the measurement.
func runWith(spec RunSpec, holder programHolder) (Measurement, error) {
	rig, err := buildRig(spec, holder)
	if err != nil {
		return Measurement{}, err
	}
	if holder.inject != nil {
		if err := holder.inject(rig.runtime); err != nil {
			return Measurement{}, fmt.Errorf("%v: %w", spec, err)
		}
	}
	wallStart := time.Now()
	res, err := rig.runtime.Run()
	wallElapsed := time.Since(wallStart)
	if err != nil {
		return Measurement{}, fmt.Errorf("%v: %w", spec, err)
	}
	joules := rig.mach.FinishEnergy()
	if spec.Trace != nil {
		workload := spec.Workload
		if workload == "" && holder.prog != nil {
			workload = holder.prog.Name()
		}
		rec := &trace.Recording{
			Workload:    workload,
			Policy:      spec.Policy.String(),
			Cores:       rig.mach.Cores(),
			Fast:        rig.fast,
			Budget:      spec.FastCores,
			BudgetWatts: budgetWatts(spec, rig),
			Tasks:       rig.runtime.Tasks(),
			Probe:       rig.probe,
		}
		if err := trace.WriteRecording(spec.Trace, rec); err != nil {
			return Measurement{}, fmt.Errorf("%v: writing trace: %w", spec, err)
		}
	}
	if spec.Timeline != nil {
		width := spec.TimelineWidth
		if width == 0 {
			width = 100
		}
		if err := trace.RenderASCII(spec.Timeline, rig.runtime.Tasks(), width); err != nil {
			return Measurement{}, fmt.Errorf("%v: rendering timeline: %w", spec, err)
		}
	}

	m := Measurement{
		Spec:          spec,
		Makespan:      res.Makespan,
		Joules:        joules,
		EDP:           energy.EDP(joules, res.Makespan),
		TasksRun:      res.TasksRun,
		CriticalTasks: res.CriticalTasks,
		StaticBinding: res.StaticBindingEvents,
		Transitions:   rig.mach.DVFS.Transitions(),
	}
	if st := schedStats(rig); st != nil {
		m.Inversions = st.CriticalToSlow
		m.Steals = st.Steals
	}
	if rig.rsmMod != nil {
		accels, decels := rig.rsmMod.Reconfigs()
		m.ReconfigOps = accels + decels
		m.ReconfigLatencyAvg = rig.rsmMod.OpLatency().MeanTime()
		m.ReconfigLatencyMax = rig.rsmMod.OpLatency().MaxTime()
		m.LockWaitMax = rig.rsmMod.Lock().WaitTimes().MaxTime()
		total := float64(res.Makespan) * float64(spec.Cores)
		m.ReconfigOverheadPct = 100 * float64(rig.rsmMod.OpTimeTotal()) / total
		m.AccelsGranted = accels
		m.AccelsDenied = rig.rsmMod.Denied()
		if spec.FastCores > 0 && res.Makespan > 0 {
			m.BudgetUtilization = float64(rig.rsmMod.AccelCoreTime()) /
				(float64(res.Makespan) * float64(spec.FastCores))
		}
	}
	if rig.fw != nil {
		m.DriverLockWaitMax = rig.fw.DriverLock().WaitTimes().MaxTime()
	}
	if rig.rsuUnit != nil {
		accels, decels := rig.rsuUnit.Reconfigs()
		m.ReconfigOps = accels + decels
		m.AccelsGranted = accels
	}
	if rig.mlUnit != nil {
		ups, downs := rig.mlUnit.Moves()
		m.ReconfigOps = ups + downs
	}
	if rig.turboC != nil {
		m.TurboReassigns = rig.turboC.Reassigns()
	}
	if res.Makespan > 0 {
		var busy sim.Time
		for i := 0; i < rig.mach.Cores(); i++ {
			busy += rig.mach.Core(i).BusyTime()
		}
		m.AvgUtilization = float64(busy) / (float64(res.Makespan) * float64(rig.mach.Cores()))
	}
	if holder.collect != nil {
		rep := holder.collect.Report(joules)
		m.Open = &rep
	}
	observeRun(m, rig.eng.Fired(), wallElapsed)
	return m, nil
}

// budgetWatts computes the run's power-budget reference for the trace's
// power counter track: the chip power with the budgeted number of cores
// at the fast level in C0-active, the rest slow, plus the uncore term.
func budgetWatts(spec RunSpec, r *rig) float64 {
	cfg := &r.mach.Cfg
	fast := spec.FastCores
	if fast > spec.Cores {
		fast = spec.Cores
	}
	slow := spec.Cores - fast
	return float64(fast)*cfg.Power.CoreWatts(cfg.FastLevel, energy.C0Active) +
		float64(slow)*cfg.Power.CoreWatts(cfg.SlowLevel, energy.C0Active) +
		cfg.Power.UncoreWattsPerCore*float64(spec.Cores)
}

// schedStats extracts dispatch statistics from whichever scheduler ran.
func schedStats(r *rig) *sched.Stats {
	if s, ok := r.runtime.Scheduler().(interface{ Stats() *sched.Stats }); ok {
		return s.Stats()
	}
	return nil
}

// RunAll executes specs in parallel (bounded by GOMAXPROCS) and returns
// measurements in spec order. The first error (in spec order) aborts the
// batch. It is a compatibility wrapper over Sweep; callers that want
// cancellation, caching, progress, or per-spec error isolation should
// use Sweep directly.
func RunAll(specs []RunSpec) ([]Measurement, error) {
	rs, err := Sweep(context.Background(), specs, SweepOptions{})
	if err != nil {
		return nil, err
	}
	return measurements(rs)
}

// measurements converts sweep results to plain measurements, failing
// fast on the first per-spec error in spec order. (Run already names
// the failing spec in its errors, so none is added here.)
func measurements(rs []RunResult) ([]Measurement, error) {
	ms := make([]Measurement, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			return nil, r.Err
		}
		ms[i] = r.Value
	}
	return ms, nil
}
