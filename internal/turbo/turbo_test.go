package turbo

import (
	"testing"
	"testing/quick"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/sim"
	"cata/internal/xrand"
)

func newRig(t *testing.T, cores, budget int) (*sim.Engine, *machine.Machine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = cores
	m, err := machine.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := New(eng, m, budget, xrand.New(42))
	return eng, m, c
}

func TestStartAcceleratesBudgetCores(t *testing.T) {
	_, m, c := newRig(t, 4, 2)
	c.Start()
	if c.AcceleratedCount() != 2 {
		t.Fatalf("accelerated %d, want 2", c.AcceleratedCount())
	}
	if m.DVFS.CommittedFast() != 2 {
		t.Fatal("DVFS targets not committed")
	}
}

func TestHaltHandsBudgetToActiveCore(t *testing.T) {
	eng, m, c := newRig(t, 4, 1)
	c.Start() // core 0 accelerated
	if !c.Accelerated(0) {
		t.Fatal("setup: core 0 should hold budget")
	}
	// Keep cores 1..3 busy so they are C0 candidates; let core 0 idle-halt.
	for i := 1; i < 4; i++ {
		i := i
		m.Core(i).Exec(10_000_000, 0, sim.Func(func() { m.Core(i).Idle() }))
	}
	eng.RunUntil(m.Cfg.IdleSpin + sim.Microsecond) // core 0 halts
	if c.Accelerated(0) {
		t.Fatal("halting core kept its budget")
	}
	// The firmware handoff lands only after the decision latency.
	if c.AcceleratedCount() != 0 {
		t.Fatalf("handoff before decision latency: count = %d", c.AcceleratedCount())
	}
	eng.RunUntil(m.Cfg.IdleSpin + c.DecisionLatency + 2*sim.Microsecond)
	if c.AcceleratedCount() != 1 {
		t.Fatalf("budget lost: count = %d", c.AcceleratedCount())
	}
	if c.Reassigns() != 1 {
		t.Fatalf("reassigns = %d", c.Reassigns())
	}
	// The new holder must be one of the active cores.
	holder := -1
	for i := 0; i < 4; i++ {
		if c.Accelerated(i) {
			holder = i
		}
	}
	if holder < 1 {
		t.Fatalf("budget holder = %d, want an active core", holder)
	}
}

func TestWakeBoostOnlyWithinBudget(t *testing.T) {
	eng, m, c := newRig(t, 2, 2)
	c.Start() // both cores accelerated: no leftover budget... actually 2/2.
	// Core 0 runs a task with an IO phase: on halt it yields, on wake it
	// may re-acquire.
	var done bool
	m.Core(0).Exec(1000, 0, sim.Func(func() {
		m.Core(0).HaltFor(50*sim.Microsecond, sim.Func(func() { done = true; m.Core(0).Idle() }))
	}))
	m.Core(1).Exec(100_000_000, 0, sim.Func(func() { m.Core(1).Idle() }))
	eng.RunUntil(30 * sim.Microsecond) // inside the IO halt
	if c.Accelerated(0) {
		t.Fatal("halted core kept budget during IO")
	}
	eng.Run()
	if !done {
		t.Fatal("IO task never completed")
	}
	// After waking, budget was available again (only core 1 held one slot).
	if c.WakeBoosts() == 0 {
		t.Fatal("wake boost never happened")
	}
	if c.AcceleratedCount() > c.Budget() {
		t.Fatal("budget exceeded")
	}
}

func TestNoCandidateLeavesBudgetFree(t *testing.T) {
	eng, m, c := newRig(t, 2, 2)
	c.Start()
	// Nothing to run: both cores idle-halt; budget drains to zero.
	eng.RunUntil(m.Cfg.IdleSpin + sim.Microsecond)
	if c.AcceleratedCount() != 0 {
		t.Fatalf("accelerated = %d after all cores halted", c.AcceleratedCount())
	}
	_ = m
}

func TestBudgetZero(t *testing.T) {
	eng, m, c := newRig(t, 2, 0)
	c.Start()
	m.Core(0).Exec(1000, 0, sim.Func(func() { m.Core(0).Idle() }))
	eng.Run()
	if c.AcceleratedCount() != 0 || m.DVFS.CommittedFast() != 0 {
		t.Fatal("zero budget violated")
	}
}

// Property: for random workloads of busy/halt cycles, the committed fast
// count never exceeds the budget and always equals the controller's count.
func TestTurboBudgetInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		cores := 2 + rng.Intn(6)
		budget := rng.Intn(cores + 1)
		eng := sim.NewEngine()
		cfg := machine.TableIConfig()
		cfg.Cores = cores
		m := machine.MustNew(eng, cfg)
		c := New(eng, m, budget, rng.Stream("victim"))
		c.Start()

		ok := true
		check := func() {
			if c.AcceleratedCount() > budget || m.DVFS.CommittedFast() > budget {
				ok = false
			}
			if c.AcceleratedCount() != m.DVFS.CommittedFast() {
				ok = false
			}
		}
		var cycle func(core, remaining int)
		cycle = func(core, remaining int) {
			check()
			if remaining == 0 {
				m.Core(core).Idle()
				return
			}
			m.Core(core).Exec(int64(rng.Intn(50000)+1000), 0, sim.Func(func() {
				if rng.Bool(0.4) {
					m.Core(core).HaltFor(sim.Time(rng.Intn(40))*sim.Microsecond, sim.Func(func() {
						cycle(core, remaining-1)
					}))
				} else {
					cycle(core, remaining-1)
				}
			}))
		}
		for i := 0; i < cores; i++ {
			cycle(i, 4)
		}
		eng.Run()
		check()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadBudget(t *testing.T) {
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = 2
	m := machine.MustNew(eng, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("bad budget did not panic")
		}
	}()
	New(eng, m, 3, xrand.New(1))
}

var _ = energy.Fast // keep energy import for documentation symmetry

// TestHaltHandoffZeroAllocs pins the controller's hand-off event:
// a halting accelerated core passing its budget to an active core, and
// the transitions that follow, allocate nothing in steady state.
func TestHaltHandoffZeroAllocs(t *testing.T) {
	eng, m, c := newRig(t, 2, 1)
	nop := sim.Func(func() {})
	for i := 0; i < 2; i++ {
		m.Core(i).Exec(0, 0, nop) // busy, so the idle loop never halts them
	}
	eng.Run()
	c.Start() // core 0 holds the budget
	halt := 2 * c.DecisionLatency
	cycle := func() {
		for _, core := range []int{0, 1} {
			m.Core(core).HaltFor(halt, nop)
			eng.Run()
			if other := 1 - core; !c.Accelerated(other) {
				t.Fatalf("core %d halted but core %d did not get its budget", core, other)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per hand-off cycle, want 0", allocs)
	}
}
