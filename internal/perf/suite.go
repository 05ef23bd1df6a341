package perf

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cata/internal/exp"
	"cata/internal/sim"
	"cata/internal/tdg"
	"cata/internal/workloads"
)

// paperWorkloads returns the paper's six benchmark names from the
// workload registry (the same set the figure matrices default to).
func paperWorkloads() []string { return workloads.Names() }

// Options controls a suite run.
type Options struct {
	// Scale is the workload scale every entry runs at (default 0.4, the
	// bench_test.go reduced scale).
	Scale float64
	// Seed fixes all workload randomness (default 42).
	Seed uint64
	// BenchTime is the per-entry measurement target (default 1s). Tests
	// use small values; captures meant for comparison should agree.
	BenchTime time.Duration
	// Progress, when non-nil, receives one line per completed entry.
	Progress func(string)
	// CPUProfileDir, when non-empty, captures a pprof CPU profile per
	// suite stage into <dir>/<stage>.cpu.pprof (slashes in stage names
	// become underscores). The directory is created if absent.
	CPUProfileDir string
	// MemProfileDir, when non-empty, writes a post-GC heap profile per
	// suite stage into <dir>/<stage>.heap.pprof.
	MemProfileDir string
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.4
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.BenchTime == 0 {
		o.BenchTime = time.Second
	}
	return o
}

// benchFunc prepares one measurement round outside the timer — like
// testing.B.ResetTimer after setup — and returns the timed loop, which
// runs n iterations and reports how many simulation events it fired
// (zero when the entry does not drive the engine directly).
type benchFunc func() (loop func(n int) (events int64, err error))

// Run executes the full suite — figure matrices, per-workload runs, an
// open-system soak, engine and TDG microbenchmarks, then checksums — and
// returns the capture. With CPUProfileDir/MemProfileDir set, every stage
// leaves pprof CPU/heap profiles behind and the capture's Profiles
// metadata records where.
func Run(opts Options) (*File, error) {
	opts = opts.withDefaults()
	f := NewFile(opts.Scale, opts.Seed)

	for _, e := range suite(opts) {
		var res Result
		prof, err := profiled(opts, e.name, func() error {
			var merr error
			res, merr = measure(e.name, e.fn, opts.BenchTime)
			return merr
		})
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", e.name, err)
		}
		f.Results = append(f.Results, res)
		if prof != nil {
			f.Profiles = append(f.Profiles, *prof)
		}
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-28s %12.0f ns/op %10d allocs/op", res.Name, res.NsPerOp, res.AllocsPerOp))
		}
	}

	var sums []Result
	prof, err := profiled(opts, "checksums", func() error {
		var cerr error
		sums, cerr = Checksums(opts.Scale, opts.Seed)
		return cerr
	})
	if err != nil {
		return nil, err
	}
	f.Results = append(f.Results, sums...)
	if prof != nil {
		f.Profiles = append(f.Profiles, *prof)
	}
	if opts.Progress != nil {
		for _, s := range sums {
			opts.Progress(fmt.Sprintf("%-28s %s", s.Name, s.Checksum))
		}
	}
	return f, nil
}

// profiled runs one suite stage under the requested pprof captures and
// returns where the profiles were written (nil when profiling is off).
func profiled(opts Options, stage string, run func() error) (*Profile, error) {
	if opts.CPUProfileDir == "" && opts.MemProfileDir == "" {
		return nil, run()
	}
	base := strings.ReplaceAll(stage, "/", "_")
	p := &Profile{Name: stage}

	if opts.CPUProfileDir != "" {
		if err := os.MkdirAll(opts.CPUProfileDir, 0o755); err != nil {
			return nil, err
		}
		p.CPU = filepath.Join(opts.CPUProfileDir, base+".cpu.pprof")
		cf, err := os.Create(p.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, fmt.Errorf("perf: starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
		}()
	}
	if err := run(); err != nil {
		return nil, err
	}
	if opts.MemProfileDir != "" {
		if err := os.MkdirAll(opts.MemProfileDir, 0o755); err != nil {
			return nil, err
		}
		p.Heap = filepath.Join(opts.MemProfileDir, base+".heap.pprof")
		hf, err := os.Create(p.Heap)
		if err != nil {
			return nil, err
		}
		defer hf.Close()
		runtime.GC() // up-to-date allocation statistics in the profile
		if err := pprof.WriteHeapProfile(hf); err != nil {
			return nil, fmt.Errorf("perf: writing heap profile: %w", err)
		}
	}
	return p, nil
}

type entry struct {
	name string
	fn   benchFunc
}

// suite lists the measured entries. Names are stable identifiers:
// Compare matches entries across captures by name.
func suite(opts Options) []entry {
	es := []entry{
		{"figure4/matrix", matrixBench(exp.Fig4Policies(), opts)},
		{"figure5/matrix", matrixBench(exp.Fig5Policies(), opts)},
	}
	for _, w := range paperWorkloads() {
		es = append(es, entry{"workload/" + w, workloadBench(w, opts)})
	}
	es = append(es,
		entry{"open/forkjoin-soak", openSoakBench(opts)},
		entry{"engine/schedule-fire", engineScheduleFire},
		entry{"engine/deep-queue", engineDeepQueue},
		entry{"engine/cancel-reschedule", engineCancelReschedule},
		entry{"tdg/submit-dense", tdgSubmitDense},
	)
	return es
}

// untimedSetup adapts a loop that needs no setup.
func untimedSetup(loop func(n int) (int64, error)) benchFunc {
	return func() func(n int) (int64, error) { return loop }
}

func matrixBench(policies []exp.Policy, opts Options) benchFunc {
	return untimedSetup(func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			m, err := exp.RunMatrix(exp.MatrixSpec{
				Policies: policies,
				Seeds:    []uint64{opts.Seed},
				Scale:    opts.Scale,
			})
			if err != nil {
				return 0, err
			}
			if m.Table("speedup") == "" {
				return 0, fmt.Errorf("empty speedup table")
			}
		}
		return 0, nil
	})
}

func workloadBench(workload string, opts Options) benchFunc {
	return untimedSetup(func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			m, err := exp.Run(exp.RunSpec{
				Workload: workload, Policy: exp.CATA,
				FastCores: 16, Seed: opts.Seed, Scale: opts.Scale,
			})
			if err != nil {
				return 0, err
			}
			if m.TasksRun == 0 {
				return 0, fmt.Errorf("no tasks run")
			}
		}
		return 0, nil
	})
}

// openSoakBench is one open-system run: Poisson-arriving fork-join jobs
// sharing a 16-core machine under CATA at about two thirds of its
// capacity, nothing shed. Its allocs/op are the per-job cost of
// admission, the job's DAG build, and its tasks' trip through the
// graph and CATA's reconfiguration path. The job count follows the
// suite scale (400 jobs at the default 0.4).
func openSoakBench(opts Options) benchFunc {
	jobs := max(int(1000*opts.Scale), 20)
	spec := exp.RunSpec{
		Workload:  "forkjoin:width=8,phases=2,dur=100",
		Policy:    exp.CATA,
		Cores:     16,
		FastCores: 8,
		Seed:      opts.Seed,
		Arrivals:  fmt.Sprintf("poisson:lambda=6000,jobs=%d", jobs),
	}
	return untimedSetup(func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			m, err := exp.Run(spec)
			if err != nil {
				return 0, err
			}
			if m.Open == nil || m.Open.JobsCompleted != int64(jobs) {
				return 0, fmt.Errorf("open soak completed %v of %d jobs", m.Open, jobs)
			}
		}
		return 0, nil
	})
}

// engineScheduleFire is the raw schedule+fire hot loop: one event in
// flight at a time would under-exercise the heap, so it keeps a rolling
// window of 10k pending events.
func engineScheduleFire() func(n int) (int64, error) {
	e := sim.NewEngine()
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			e.After(sim.Time(i%1000), func() {})
			if e.Pending() > 10000 {
				e.Run()
			}
		}
		e.Run()
		return int64(e.Fired()), nil
	}
}

// engineDeepQueue holds a standing queue of 4k events and fires one per
// iteration — the sift-down regime where heap arity matters. The
// prefill is setup: charging it to the timed loop would swamp a round
// that settles on a small n.
func engineDeepQueue() func(n int) (int64, error) {
	e := sim.NewEngine()
	for i := 0; i < 4096; i++ {
		e.After(sim.Time(i+1), func() {})
	}
	step := func() {
		e.After(sim.Time(4096), func() {})
		e.RunUntil(e.Now() + 1)
	}
	step() // grows the queue to its steady-state peak of 4097
	setupFired := e.Fired()
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			step()
		}
		return int64(e.Fired() - setupFired), nil
	}
}

// engineCancelReschedule is the DVFS-rescale pattern: cancel the pending
// completion, schedule a replacement.
func engineCancelReschedule() func(n int) (int64, error) {
	e := sim.NewEngine()
	return func(n int) (int64, error) {
		var h sim.Handle
		for i := 0; i < n; i++ {
			if h.Pending() {
				h.Cancel()
			}
			h = e.After(sim.Time(i%100+1), func() {})
			if i%64 == 0 {
				e.Run()
			}
		}
		e.Run()
		return int64(e.Fired()), nil
	}
}

// tdgSubmitDense measures the memoized bottom-level walk on a dense
// shared-suffix graph: 512 tasks over an 8-token pool, completing ready
// tasks every few submissions. The program's dependences are resolved
// once, in setup, as a compiled program's are; each op instantiates the
// DAG and runs the submissions over it.
func tdgSubmitDense() func(n int) (int64, error) {
	var res tdg.Resolver
	for j := 0; j < 512; j++ {
		res.Add([]tdg.Token{tdg.Token(j % 8)}, []tdg.Token{tdg.Token((j + 3) % 8)})
	}
	dag := res.DAG()
	return func(n int) (int64, error) {
		for i := 0; i < n; i++ {
			var ready []*tdg.Task
			g := tdg.New(func(t *tdg.Task) { ready = append(ready, t) })
			var in tdg.Instance
			in.Init(dag)
			for j := 0; j < 512; j++ {
				t := in.Next()
				t.ID = j
				t.CPUCycles = 1000
				g.Submit(t)
				if j%3 == 0 && len(ready) > 0 {
					head := ready[0]
					ready = ready[1:]
					g.Start(head)
					g.Complete(head)
				}
			}
		}
		return 0, nil
	}
}

// minIterations floors the settled iteration count, so a slow first
// round (cold caches, page faults, a descheduled process) cannot fix
// n=1 and make one outlier iteration the whole ns/op figure.
const minIterations = 5

// measure runs fn with growing iteration counts until the target bench
// time is met and at least minIterations ran, then takes the best of
// three rounds at the settled count.
// It mirrors testing.B's protocol (GC before timing, memstats deltas for
// allocation counts) without depending on the testing package in a
// non-test binary; the min-of-rounds step absorbs scheduler noise spikes
// that would otherwise trip the regression gate on shared machines.
func measure(name string, fn benchFunc, benchTime time.Duration) (Result, error) {
	n := 1
	for {
		res, elapsed, err := round(name, fn, n)
		if err != nil {
			return Result{}, err
		}
		if (elapsed >= benchTime && n >= minIterations) || n >= 1e9 {
			for i := 0; i < 2; i++ {
				again, _, err := round(name, fn, n)
				if err != nil {
					return Result{}, err
				}
				if again.NsPerOp < res.NsPerOp {
					res.NsPerOp = again.NsPerOp
					res.EventsPerSec = again.EventsPerSec
				}
				if again.AllocsPerOp < res.AllocsPerOp {
					res.AllocsPerOp = again.AllocsPerOp
					res.BytesPerOp = again.BytesPerOp
				}
			}
			return res, nil
		}
		// Grow toward the target like testing.B: extrapolate, pad 20%,
		// cap the jump at 100x.
		next := int(float64(n) * 1.2 * float64(benchTime) / float64(elapsed+1))
		if next > 100*n {
			next = 100 * n
		}
		if next <= n {
			next = n + 1
		}
		n = max(next, minIterations)
	}
}

// round sets up and times one batch of n iterations; only the loop is
// timed and counted.
func round(name string, fn benchFunc, n int) (Result, time.Duration, error) {
	loop := fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	events, err := loop(n)
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, 0, err
	}
	runtime.ReadMemStats(&after)
	res := Result{
		Name:        name,
		Kind:        KindBench,
		Iterations:  n,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(n),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(n),
	}
	if events > 0 && elapsed > 0 {
		res.EventsPerSec = float64(events) / elapsed.Seconds()
	}
	return res, elapsed, nil
}

// Checksums runs every policy over the paper's six workloads and the
// three fast-core budgets at the given scale/seed, hashing the
// deterministic outputs (makespan picoseconds and task counts) per
// policy. The digests are bit-exact across machines: a mismatch between
// two captures at the same scale/seed means the simulation's behavior
// changed.
func Checksums(scale float64, seed uint64) ([]Result, error) {
	policies := append(exp.AllPolicies(), exp.ExtensionPolicies()...)
	workloads := paperWorkloads()
	fasts := []int{8, 16, 24}
	var out []Result
	for _, p := range policies {
		h := fnv.New64a()
		for _, w := range workloads {
			for _, fast := range fasts {
				m, err := exp.Run(exp.RunSpec{
					Workload: w, Policy: p, FastCores: fast, Seed: seed, Scale: scale,
				})
				if err != nil {
					return nil, fmt.Errorf("perf: checksum %v/%s/fast=%d: %w", p, w, fast, err)
				}
				fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d\n",
					w, fast, int64(m.Makespan), m.TasksRun, m.CriticalTasks, m.Inversions, m.StaticBinding)
			}
		}
		out = append(out, Result{
			Name:     "checksum/" + p.String(),
			Kind:     KindChecksum,
			Checksum: fmt.Sprintf("%016x", h.Sum64()),
		})
	}
	return out, nil
}
