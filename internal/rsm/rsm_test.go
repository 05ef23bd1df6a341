package rsm

import (
	"testing"
	"testing/quick"

	"cata/internal/cpufreq"
	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/sim"
	"cata/internal/xrand"
)

func newRig(t *testing.T, cores, budget int) (*sim.Engine, *machine.Machine, *RSM) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = cores
	m, err := machine.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw := cpufreq.New(eng, m, cpufreq.DefaultCosts())
	return eng, m, New(eng, m, fw, budget)
}

// busy puts a core into the worker-busy context RSM operations require,
// waking it first if it has idle-halted (as the runtime's dispatch path
// does).
func busy(m *machine.Machine, core int, fn func()) {
	c := m.Core(core)
	switch c.State() {
	case machine.Halted, machine.Sleeping:
		c.Wake(sim.Func(func() { c.Exec(0, 0, sim.Func(fn)) }))
	default:
		c.Exec(0, 0, sim.Func(fn))
	}
}

func TestCritStateString(t *testing.T) {
	if NoTask.String() != "-" || NonCritical.String() != "NC" || Critical.String() != "C" {
		t.Fatal("CritState strings wrong")
	}
}

func TestAccelerateWithinBudget(t *testing.T) {
	eng, m, r := newRig(t, 4, 2)
	var started int
	busy(m, 0, func() { r.TaskStart(0, false, sim.Func(func() { started++ })) })
	eng.Run()
	if started != 1 {
		t.Fatal("TaskStart callback not invoked")
	}
	// Budget available: even a non-critical task is accelerated (§III-A).
	if !r.Table().Accelerated(0) || r.Table().Used() != 1 {
		t.Fatal("core 0 not accelerated despite budget")
	}
	if m.DVFS.Target(0) != energy.Fast {
		t.Fatal("DVFS target not fast")
	}
	if r.Table().Crit(0) != NonCritical {
		t.Fatalf("crit = %v", r.Table().Crit(0))
	}
}

func TestCriticalPreemptsNonCritical(t *testing.T) {
	eng, m, r := newRig(t, 4, 1)
	busy(m, 0, func() {
		r.TaskStart(0, false, sim.Func(func() {})) // takes the only budget slot
	})
	eng.Run()
	if !r.Table().Accelerated(0) {
		t.Fatal("setup: core 0 should be accelerated")
	}
	busy(m, 1, func() {
		r.TaskStart(1, true, sim.Func(func() {})) // critical: must steal the slot
	})
	eng.Run()
	if r.Table().Accelerated(0) {
		t.Fatal("victim core 0 still accelerated")
	}
	if !r.Table().Accelerated(1) {
		t.Fatal("critical core 1 not accelerated")
	}
	if r.Table().Used() != 1 {
		t.Fatalf("count = %d", r.Table().Used())
	}
	if m.DVFS.Target(0) != energy.Slow || m.DVFS.Target(1) != energy.Fast {
		t.Fatal("DVFS targets wrong after preemption")
	}
}

func TestNonCriticalDoesNotPreempt(t *testing.T) {
	eng, m, r := newRig(t, 4, 1)
	busy(m, 0, func() { r.TaskStart(0, false, sim.Func(func() {})) })
	eng.Run()
	busy(m, 1, func() { r.TaskStart(1, false, sim.Func(func() {})) })
	eng.Run()
	if !r.Table().Accelerated(0) || r.Table().Accelerated(1) {
		t.Fatal("non-critical task must not preempt")
	}
}

func TestAllCriticalNoPreemption(t *testing.T) {
	eng, m, r := newRig(t, 4, 1)
	busy(m, 0, func() { r.TaskStart(0, true, sim.Func(func() {})) })
	eng.Run()
	busy(m, 1, func() { r.TaskStart(1, true, sim.Func(func() {})) })
	eng.Run()
	// All accelerated cores run critical tasks: the incoming critical task
	// "cannot be accelerated, so it is tagged as non-accelerated".
	if !r.Table().Accelerated(0) || r.Table().Accelerated(1) {
		t.Fatal("critical task preempted another critical task")
	}
}

func TestTaskEndHandsBudgetToWaitingCritical(t *testing.T) {
	eng, m, r := newRig(t, 4, 1)
	busy(m, 0, func() { r.TaskStart(0, true, sim.Func(func() {})) })
	eng.Run()
	busy(m, 1, func() { r.TaskStart(1, true, sim.Func(func() {})) })
	eng.Run()
	if r.Table().Accelerated(1) {
		t.Fatal("setup: core 1 should be waiting non-accelerated")
	}
	busy(m, 0, func() { r.TaskEnd(0, sim.Func(func() {})) })
	eng.Run()
	if r.Table().Accelerated(0) {
		t.Fatal("finished core still accelerated")
	}
	if !r.Table().Accelerated(1) {
		t.Fatal("waiting critical core not accelerated after TaskEnd")
	}
	if r.Table().Crit(0) != NoTask {
		t.Fatalf("crit(0) = %v", r.Table().Crit(0))
	}
}

func TestTaskEndNonAccelerated(t *testing.T) {
	eng, m, r := newRig(t, 2, 0) // zero budget: nothing ever accelerates
	busy(m, 0, func() { r.TaskStart(0, true, sim.Func(func() {})) })
	eng.Run()
	if r.Table().Accelerated(0) {
		t.Fatal("accelerated with zero budget")
	}
	var ended bool
	busy(m, 0, func() { r.TaskEnd(0, sim.Func(func() { ended = true })) })
	eng.Run()
	if !ended {
		t.Fatal("TaskEnd callback not invoked")
	}
	accels, decels := r.Table().Reconfigs()
	if accels != 0 || decels != 0 {
		t.Fatalf("reconfigs = %d/%d, want 0/0", accels, decels)
	}
}

func TestOperationsSerializeThroughLock(t *testing.T) {
	eng, m, r := newRig(t, 4, 4)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		busy(m, i, func() { r.TaskStart(i, false, sim.Func(func() { order = append(order, i) })) })
	}
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d ops", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
	_, contended := r.Lock().Acquisitions()
	if contended != 2 {
		t.Fatalf("lock contended %d times, want 2", contended)
	}
	if r.OpLatency().Count() != 3 {
		t.Fatalf("op latencies recorded = %d", r.OpLatency().Count())
	}
	// Later ops waited for earlier ones: latency must grow monotonically.
	if r.OpLatency().MaxTime() <= r.OpLatency().MinTime() {
		t.Fatal("no serialization visible in op latencies")
	}
}

func TestOpTimeTotalAccumulates(t *testing.T) {
	eng, m, r := newRig(t, 2, 2)
	busy(m, 0, func() { r.TaskStart(0, false, sim.Func(func() {})) })
	eng.Run()
	if r.OpTimeTotal() <= 0 {
		t.Fatal("OpTimeTotal not accumulated")
	}
}

func TestBudgetNeverExceededProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		cores := 2 + rng.Intn(6)
		budget := rng.Intn(cores + 1)
		eng := sim.NewEngine()
		cfg := machine.TableIConfig()
		cfg.Cores = cores
		m := machine.MustNew(eng, cfg)
		fw := cpufreq.New(eng, m, cpufreq.DefaultCosts())
		r := New(eng, m, fw, budget)

		// Drive random start/end sequences per core, chained so each
		// core's ops alternate correctly.
		ok := true
		var drive func(core int, remaining int, running bool)
		drive = func(core int, remaining int, running bool) {
			if remaining == 0 {
				return
			}
			check := func() {
				if r.Table().Used() > budget {
					ok = false
				}
				if m.DVFS.CommittedFast() > budget {
					ok = false
				}
			}
			if running {
				r.TaskEnd(core, sim.Func(func() {
					check()
					eng.After(sim.Time(rng.Intn(30))*sim.Microsecond, sim.Func(func() {
						drive(core, remaining-1, false)
					}))
				}))
			} else {
				r.TaskStart(core, rng.Bool(0.4), sim.Func(func() {
					check()
					eng.After(sim.Time(rng.Intn(30))*sim.Microsecond, sim.Func(func() {
						drive(core, remaining-1, true)
					}))
				}))
			}
		}
		for c := 0; c < cores; c++ {
			c := c
			busy(m, c, func() { drive(c, 6, false) })
		}
		eng.Run()
		return ok && r.Table().Used() <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOperationsZeroAllocs pins the RSM's stage events: every TaskStart branch (free budget, victim swap, deny) and every
// TaskEnd branch (not accelerated, no waiting critical task, hand-off)
// allocates nothing in steady state, cpufreq writes and DVFS
// transitions included. Each cycle returns the RSM to the state its
// setup left, and its reconfiguration counts prove the branches ran.
func TestOperationsZeroAllocs(t *testing.T) {
	type step struct {
		core int
		fn   func()
	}
	type deltas struct{ accels, decels, denies int64 }
	nop := sim.Func(func() {})
	for _, tc := range []struct {
		name         string
		setup, cycle func(r *RSM) []step
		want         deltas
	}{
		{
			// start: free budget; end: no waiting critical task.
			name: "free-budget",
			cycle: func(r *RSM) []step {
				return []step{
					{0, func() { r.TaskStart(0, false, nop) }},
					{0, func() { r.TaskEnd(0, nop) }},
				}
			},
			want: deltas{accels: 1, decels: 1},
		},
		{
			// start: a critical task takes a non-critical victim's slot;
			// end: not accelerated, then the victim's core takes the free
			// budget back.
			name:  "victim-swap",
			setup: func(r *RSM) []step { return []step{{0, func() { r.TaskStart(0, false, nop) }}} },
			cycle: func(r *RSM) []step {
				return []step{
					{1, func() { r.TaskStart(1, true, nop) }},
					{1, func() { r.TaskEnd(1, nop) }},
					{0, func() { r.TaskEnd(0, nop) }},
					{0, func() { r.TaskStart(0, false, nop) }},
				}
			},
			want: deltas{accels: 2, decels: 2},
		},
		{
			// start: denied, for a non-critical and a critical task
			// (every accelerated core runs critical work); end: not
			// accelerated.
			name:  "deny",
			setup: func(r *RSM) []step { return []step{{0, func() { r.TaskStart(0, true, nop) }}} },
			cycle: func(r *RSM) []step {
				return []step{
					{1, func() { r.TaskStart(1, false, nop) }},
					{1, func() { r.TaskEnd(1, nop) }},
					{1, func() { r.TaskStart(1, true, nop) }},
					{1, func() { r.TaskEnd(1, nop) }},
				}
			},
			want: deltas{denies: 2},
		},
		{
			// end: the freed budget goes to a critical task running slow.
			name:  "hand-off",
			setup: func(r *RSM) []step { return []step{{0, func() { r.TaskStart(0, true, nop) }}} },
			cycle: func(r *RSM) []step {
				return []step{
					{1, func() { r.TaskStart(1, true, nop) }},
					{0, func() { r.TaskEnd(0, nop) }},
					{0, func() { r.TaskStart(0, true, nop) }},
					{1, func() { r.TaskEnd(1, nop) }},
				}
			},
			want: deltas{accels: 2, decels: 2, denies: 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, m, r := newRig(t, 4, 1)
			for i := 0; i < m.Cores(); i++ {
				m.Core(i).Exec(0, 0, nop) // worker context: busy, never idle-demoted
			}
			eng.Run()
			run := func(steps []step) {
				for _, s := range steps {
					m.Core(s.core).Exec(0, 0, sim.Func(s.fn))
					eng.Run()
				}
			}
			if tc.setup != nil {
				run(tc.setup(r))
			}
			cycle := tc.cycle(r)
			counts := func() deltas {
				a, d := r.Table().Reconfigs()
				return deltas{a, d, r.Table().Denied()}
			}
			before := counts()
			run(cycle)
			after := counts()
			got := deltas{after.accels - before.accels, after.decels - before.decels, after.denies - before.denies}
			if got != tc.want {
				t.Fatalf("one cycle: %+v, want %+v", got, tc.want)
			}
			if allocs := testing.AllocsPerRun(100, func() { run(cycle) }); allocs != 0 {
				t.Fatalf("%v allocations per cycle, want 0", allocs)
			}
		})
	}
}

// TestOverlappingOperationsPanic: a core runs one RSM operation at a
// time.
func TestOverlappingOperationsPanic(t *testing.T) {
	_, _, r := newRig(t, 2, 1)
	r.TaskStart(0, false, sim.Func(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("second operation on a core with one in flight did not panic")
		}
	}()
	r.TaskEnd(0, sim.Func(func() {}))
}
