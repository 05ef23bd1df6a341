package rsu

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/rsm"
	"cata/internal/sim"
	"cata/internal/xrand"
)

func newRig(t *testing.T, cores, budget int) (*sim.Engine, *machine.Machine, *RSU) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = cores
	m, err := machine.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := New(eng, m, []int{0, 1})
	r.Init(budget)
	return eng, m, r
}

// threeLevelRig returns a machine with the three-level power model and
// its unit at ThreeLevelUnitCosts, initialized with unitBudget.
func threeLevelRig(t *testing.T, cores, unitBudget int) (*sim.Engine, *machine.Machine, *RSU) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := machine.New(eng, threeLevelConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	r := New(eng, m, ThreeLevelUnitCosts())
	r.Init(unitBudget)
	return eng, m, r
}

func threeLevelConfig(cores int) machine.Config {
	cfg := machine.TableIConfig()
	cfg.Cores = cores
	cfg.Power = ThreeLevelModel()
	cfg.SlowLevel = 0
	cfg.FastLevel = 2
	return cfg
}

func TestInitEnableDisable(t *testing.T) {
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = 4
	m := machine.MustNew(eng, cfg)
	r := New(eng, m, []int{0, 1})
	if r.Enabled() {
		t.Fatal("RSU enabled before Init")
	}
	r.Init(2)
	if !r.Enabled() || r.Table().Budget() != 2 {
		t.Fatal("Init did not enable")
	}
	r.StartTask(0, true)
	r.Disable()
	if r.Enabled() || r.Table().Used() != 0 {
		t.Fatal("Disable did not reset")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("op on disabled RSU did not panic")
		}
	}()
	r.StartTask(0, true)
}

func TestStartTaskAcceleratesWithinBudget(t *testing.T) {
	_, m, r := newRig(t, 4, 2)
	r.StartTask(0, false)
	if !r.Table().Accelerated(0) {
		t.Fatal("budget available but not accelerated")
	}
	if m.DVFS.Target(0) != energy.Fast {
		t.Fatal("DVFS target not updated")
	}
	if r.ReadCritic(0) != rsm.NonCritical {
		t.Fatalf("ReadCritic = %v", r.ReadCritic(0))
	}
}

func TestCriticalPreemption(t *testing.T) {
	_, m, r := newRig(t, 4, 1)
	r.StartTask(0, false)
	r.StartTask(1, true)
	if r.Table().Accelerated(0) || !r.Table().Accelerated(1) {
		t.Fatal("critical preemption failed")
	}
	if m.DVFS.Target(0) != energy.Slow || m.DVFS.Target(1) != energy.Fast {
		t.Fatal("DVFS targets wrong")
	}
	// A third critical task finds only critical accelerated: no preemption.
	r.StartTask(2, true)
	if r.Table().Accelerated(2) {
		t.Fatal("critical task preempted a critical task")
	}
}

func TestEndTaskRebalances(t *testing.T) {
	_, _, r := newRig(t, 4, 1)
	r.StartTask(0, true)
	r.StartTask(1, true) // waits non-accelerated
	r.EndTask(0)
	if r.Table().Accelerated(0) || !r.Table().Accelerated(1) {
		t.Fatal("EndTask did not hand budget to waiting critical")
	}
	if r.ReadCritic(0) != rsm.NoTask {
		t.Fatalf("ReadCritic(0) = %v", r.ReadCritic(0))
	}
	if r.Ops() != 3 {
		t.Fatalf("Ops = %d", r.Ops())
	}
}

func TestEndTaskNonCriticalWaiterNotBoosted(t *testing.T) {
	_, _, r := newRig(t, 4, 1)
	r.StartTask(0, true)
	r.StartTask(1, false) // non-critical waiter
	r.EndTask(0)
	// §III-A: freed budget goes only to non-accelerated *critical* tasks.
	if r.Table().Accelerated(1) {
		t.Fatal("non-critical waiter boosted on task end")
	}
	if r.Table().Used() != 0 {
		t.Fatalf("count = %d", r.Table().Used())
	}
}

func TestReset(t *testing.T) {
	_, m, r := newRig(t, 4, 2)
	r.StartTask(0, true)
	r.StartTask(1, false)
	r.Reset()
	if r.Table().Used() != 0 {
		t.Fatal("Reset left accelerated cores")
	}
	for i := 0; i < 4; i++ {
		if r.ReadCritic(i) != rsm.NoTask {
			t.Fatalf("ReadCritic(%d) = %v after Reset", i, r.ReadCritic(i))
		}
	}
	if m.DVFS.Target(0) != energy.Slow {
		t.Fatal("Reset did not decelerate")
	}
}

func TestVirtualizationSaveRestore(t *testing.T) {
	_, _, r := newRig(t, 4, 2)
	r.StartTask(0, true)
	saved := r.SaveContext(0) // preemption: criticality saved, slot freed
	if saved != rsm.Critical {
		t.Fatalf("saved = %v", saved)
	}
	if r.Table().Accelerated(0) || r.ReadCritic(0) != rsm.NoTask {
		t.Fatal("SaveContext did not release the core")
	}
	r.RestoreContext(0, saved)
	if !r.Table().Accelerated(0) || r.ReadCritic(0) != rsm.Critical {
		t.Fatal("RestoreContext did not reinstate the task")
	}
	// Restoring an idle thread is a no-op.
	r.RestoreContext(1, rsm.NoTask)
	if r.ReadCritic(1) != rsm.NoTask {
		t.Fatal("NoTask restore changed state")
	}
}

func TestRSUOpsAreInstant(t *testing.T) {
	eng, _, r := newRig(t, 4, 2)
	before := eng.Now()
	r.StartTask(0, true)
	r.EndTask(0)
	if eng.Now() != before {
		t.Fatal("RSU ops consumed simulated time")
	}
	if eng.Pending() == 0 {
		t.Fatal("expected pending DVFS transitions")
	}
}

func TestCostModelMatchesPaperFormula(t *testing.T) {
	c := CostOf(32, 2)
	// 3×32 + log2(32) + 2×log2(2) = 96 + 5 + 2 = 103 bits.
	if c.StorageBits != 103 {
		t.Fatalf("bits = %d, want 103", c.StorageBits)
	}
	// Paper: <0.0001% of a 32-core die, <50 µW.
	if c.DieFraction >= 0.0001/100 {
		t.Fatalf("die fraction = %g, want < 0.0001%%", c.DieFraction)
	}
	if c.PowerWatts >= 50e-6 {
		t.Fatalf("power = %g W, want < 50 µW", c.PowerWatts)
	}
	if !strings.Contains(c.String(), "103 bits") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestCostScaling(t *testing.T) {
	small := CostOf(8, 2)
	big := CostOf(64, 4)
	if small.StorageBits >= big.StorageBits {
		t.Fatal("cost not monotonic in cores")
	}
	// 3×8 + 3 + 2×1 = 29; 3×64 + 6 + 2×2 = 202.
	if small.StorageBits != 29 || big.StorageBits != 202 {
		t.Fatalf("bits = %d/%d, want 29/202", small.StorageBits, big.StorageBits)
	}
}

func TestCostPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CostOf(0, 2) did not panic")
		}
	}()
	CostOf(0, 2)
}

func TestThreeLevelModel(t *testing.T) {
	pm := ThreeLevelModel()
	if pm.Levels() != 3 {
		t.Fatalf("levels = %d", pm.Levels())
	}
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	mid := pm.Point(1)
	if mid.Freq != 1500*sim.Megahertz || mid.Voltage != 0.9 {
		t.Fatalf("mid point = %v", mid)
	}
}

func TestMLGrantsHighestAffordable(t *testing.T) {
	_, m, r := threeLevelRig(t, 4, 3)
	tab := r.Table()
	r.StartTask(0, false) // fast costs 2, affordable
	if tab.Level(0) != 2 || tab.Used() != 2 {
		t.Fatalf("level=%d units=%d, want fast/2", tab.Level(0), tab.Used())
	}
	r.StartTask(1, false) // only 1 unit left: mid
	if tab.Level(1) != 1 || tab.Used() != 3 {
		t.Fatalf("level=%d units=%d, want mid/3", tab.Level(1), tab.Used())
	}
	r.StartTask(2, false) // nothing left: slow
	if tab.Level(2) != 0 {
		t.Fatalf("level = %d, want slow", tab.Level(2))
	}
	if m.DVFS.Target(0) != 2 || m.DVFS.Target(1) != 1 {
		t.Fatal("DVFS targets not driven")
	}
	if tab.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", tab.Denied())
	}
}

func TestMLCriticalPreemptsStepwise(t *testing.T) {
	_, _, r := threeLevelRig(t, 4, 2)
	tab := r.Table()
	r.StartTask(0, false) // non-critical takes fast (2 units)
	r.StartTask(1, true)  // critical: shave core 0 down, claim what frees
	if tab.Level(1) == 0 {
		t.Fatal("critical task got nothing despite a non-critical victim")
	}
	if tab.Used() > tab.Budget() {
		t.Fatal("budget exceeded")
	}
	// Core 0 must have been lowered below fast.
	if tab.Level(0) == 2 {
		t.Fatal("victim untouched")
	}
}

func TestMLCriticalDoesNotPreemptCritical(t *testing.T) {
	_, _, r := threeLevelRig(t, 4, 2)
	r.StartTask(0, true) // critical at fast
	r.StartTask(1, true) // no victims: slow
	if tab := r.Table(); tab.Level(0) != 2 || tab.Level(1) != 0 {
		t.Fatalf("levels = %d/%d", tab.Level(0), tab.Level(1))
	}
}

func TestMLEndRebalancesToStarvedCritical(t *testing.T) {
	_, _, r := threeLevelRig(t, 4, 2)
	tab := r.Table()
	r.StartTask(0, false) // fast
	r.StartTask(1, true)  // preempts stepwise: gets something, core 0 shaved
	r.StartTask(2, true)  // whatever is left
	r.EndTask(0)          // non-critical leaves: criticals get raised
	if got := tab.Cost(tab.Level(1)) + tab.Cost(tab.Level(2)); got != tab.Budget() {
		t.Fatalf("freed units not fully redistributed: levels %d/%d",
			tab.Level(1), tab.Level(2))
	}
	if tab.Used() > tab.Budget() {
		t.Fatal("budget exceeded")
	}
}

func TestMLValidatesConstruction(t *testing.T) {
	eng := sim.NewEngine()
	m := machine.MustNew(eng, threeLevelConfig(2))
	for _, costs := range [][]int{
		{0, 1},    // wrong length
		{1, 2, 3}, // nonzero baseline
		{0, 2, 1}, // decreasing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("costs %v accepted", costs)
				}
			}()
			New(eng, m, costs)
		}()
	}
}

func TestInitRejectsBudgetBeyondTopLevel(t *testing.T) {
	for _, tc := range []struct {
		costs  []int
		budget int
	}{
		{[]int{0, 1}, -1},
		{[]int{0, 1}, 5},           // more than 4 cores
		{ThreeLevelUnitCosts(), 9}, // more than 4 cores at 2 units
	} {
		func() {
			eng := sim.NewEngine()
			cfg := machine.TableIConfig()
			cfg.Cores = 4
			if len(tc.costs) == 3 {
				cfg = threeLevelConfig(4)
			}
			r := New(eng, machine.MustNew(eng, cfg), tc.costs)
			defer func() {
				if recover() == nil {
					t.Errorf("costs %v: Init(%d) accepted", tc.costs, tc.budget)
				}
			}()
			r.Init(tc.budget)
		}()
	}
}

// unitOps applies one decoded operation stream — task start, task end,
// halt (context save) and wake (context restore) on each core — to the
// unit and, when ref is non-nil, to the reference model, calling check
// after each operation that ran. Each byte is one operation: bits 0-1
// the kind, bit 2 the task's criticality, the rest the core.
func unitOps(ops []byte, cores int, r *RSU, ref *refRSU, check func()) {
	running := make([]bool, cores)
	parked := make([]bool, cores)
	saved := make([]rsm.CritState, cores)
	for _, b := range ops {
		core, critical := int(b>>3)%cores, b&4 != 0
		switch b & 3 {
		case 0:
			if running[core] || parked[core] {
				continue
			}
			r.StartTask(core, critical)
			if ref != nil {
				ref.start(core, critical)
			}
			running[core] = true
		case 1:
			if !running[core] {
				continue
			}
			r.EndTask(core)
			if ref != nil {
				ref.end(core)
			}
			running[core] = false
		case 2:
			if !running[core] {
				continue
			}
			saved[core] = r.SaveContext(core)
			if ref != nil {
				ref.end(core)
			}
			running[core], parked[core] = false, true
		case 3:
			if !parked[core] {
				continue
			}
			r.RestoreContext(core, saved[core])
			if ref != nil {
				ref.start(core, saved[core] == rsm.Critical)
			}
			running[core], parked[core] = true, false
		}
		check()
	}
}

// Property: under any interleaving of start/end/save/restore operations,
// at any unit costs, the units in use equal the sum of the per-core
// level costs, never exceed the budget, and every core's DVFS target is
// its granted level.
func TestUnitBudgetInvariantProperty(t *testing.T) {
	for _, tc := range []struct {
		name  string
		costs []int
		cfg   func(cores int) machine.Config
	}{
		{"two-level", []int{0, 1}, func(cores int) machine.Config {
			cfg := machine.TableIConfig()
			cfg.Cores = cores
			return cfg
		}},
		{"three-level", ThreeLevelUnitCosts(), threeLevelConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top := tc.costs[len(tc.costs)-1]
			f := func(seed uint64) bool {
				rng := xrand.New(seed)
				cores := 2 + rng.Intn(8)
				budget := rng.Intn(top*cores + 1)
				eng := sim.NewEngine()
				m := machine.MustNew(eng, tc.cfg(cores))
				r := New(eng, m, tc.costs)
				r.Init(budget)
				ops := make([]byte, 300)
				for i := range ops {
					ops[i] = byte(rng.Intn(256))
				}
				ok := true
				unitOps(ops, cores, r, nil, func() {
					tab, sum := r.Table(), 0
					for i := 0; i < cores; i++ {
						sum += tc.costs[tab.Level(i)]
						if m.DVFS.Target(i) != energy.Level(tab.Level(i)) {
							ok = false
						}
					}
					if sum != tab.Used() || sum > budget {
						ok = false
					}
				})
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// dvfsReq is one DVFS controller request: core to level.
type dvfsReq struct{ core, level int }

// dvfsLog records the machine's DVFS requests in order.
type dvfsLog struct {
	probe.Nop
	reqs []dvfsReq
}

// FreqRequest implements probe.Recorder.
func (l *dvfsLog) FreqRequest(_ sim.Time, core, level int) {
	l.reqs = append(l.reqs, dvfsReq{core, level})
}

// refRSU is the paper's two-level RSU rule (§III-B.2): the oracle the
// unit must reproduce at costs {0, 1}, logging the DVFS requests it issues.
type refRSU struct {
	budget         int
	crit           []rsm.CritState
	accel          []bool
	accels, decels int64 // their difference is the accelerated count
	reqs           []dvfsReq
}

func (r *refRSU) set(core int, on bool) {
	r.accel[core] = on
	if on {
		r.accels++
		r.reqs = append(r.reqs, dvfsReq{core, 1})
	} else {
		r.decels++
		r.reqs = append(r.reqs, dvfsReq{core, 0})
	}
}

// find returns the first core with the given bit and criticality, or -1.
func (r *refRSU) find(accel bool, c rsm.CritState) int {
	for i := range r.accel {
		if r.accel[i] == accel && r.crit[i] == c {
			return i
		}
	}
	return -1
}

func (r *refRSU) start(core int, critical bool) {
	r.crit[core] = rsm.CritOf(critical)
	if r.accels-r.decels < int64(r.budget) {
		r.set(core, true)
	} else if victim := r.find(true, rsm.NonCritical); critical && victim >= 0 {
		r.set(victim, false)
		r.set(core, true)
	}
}

func (r *refRSU) end(core int) {
	r.crit[core] = rsm.NoTask
	if r.accel[core] {
		r.set(core, false)
		if next := r.find(false, rsm.Critical); next >= 0 {
			r.set(next, true)
		}
	}
}

// FuzzUnitVsReference drives the unit at unit costs {0, 1} alongside the
// two-level reference rule and, after every operation, compares each
// core's level, the ordered DVFS request sequence and the
// acceleration/deceleration counts. The same stream at {0, 1, 2} must
// keep the units in use within the budget. The first byte picks the
// core count, the second the budget.
func FuzzUnitVsReference(f *testing.F) {
	f.Add([]byte{3, 1, 0, 8, 4, 12, 1, 16})
	f.Add([]byte{2, 1, 4, 12, 2, 3, 9, 1})
	f.Add([]byte{5, 2, 0, 12, 20, 28, 2, 1, 3, 9, 26, 27})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cores := 2 + int(data[0])%7
		budget := int(data[1]) % (cores + 1)
		ops := data[2:]

		eng := sim.NewEngine()
		cfg := machine.TableIConfig()
		cfg.Cores = cores
		m := machine.MustNew(eng, cfg)
		log := &dvfsLog{}
		m.SetRecorder(log)
		r := New(eng, m, []int{0, 1})
		r.Init(budget)
		ref := &refRSU{budget: budget, crit: make([]rsm.CritState, cores), accel: make([]bool, cores)}
		unitOps(ops, cores, r, ref, func() {
			tab := r.Table()
			for i := 0; i < cores; i++ {
				if tab.Accelerated(i) != ref.accel[i] || tab.Crit(i) != ref.crit[i] {
					t.Fatalf("core %d: unit level %d crit %v, reference accelerated %v crit %v",
						i, tab.Level(i), tab.Crit(i), ref.accel[i], ref.crit[i])
				}
			}
			if !slices.Equal(log.reqs, ref.reqs) {
				t.Fatalf("DVFS requests: unit %v, reference %v", log.reqs, ref.reqs)
			}
			if a, d := tab.Reconfigs(); a != ref.accels || d != ref.decels {
				t.Fatalf("reconfigs: unit %d/%d, reference %d/%d", a, d, ref.accels, ref.decels)
			}
		})

		eng3 := sim.NewEngine()
		r3 := New(eng3, machine.MustNew(eng3, threeLevelConfig(cores)), ThreeLevelUnitCosts())
		r3.Init(int(data[1]) % (2*cores + 1))
		unitOps(ops, cores, r3, nil, func() {
			if tab := r3.Table(); tab.Used() > tab.Budget() {
				t.Fatalf("three-level unit uses %d units of %d", tab.Used(), tab.Budget())
			}
		})
	})
}
