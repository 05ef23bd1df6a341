package machine

import (
	"testing"
	"testing/quick"

	"cata/internal/energy"
	"cata/internal/sim"
	"cata/internal/xrand"
)

func testConfig() Config {
	cfg := TableIConfig()
	cfg.Cores = 4
	return cfg
}

func newTestMachine(t *testing.T, cfg Config) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestTableIConfig(t *testing.T) {
	cfg := TableIConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 32 {
		t.Fatalf("Cores = %d, want 32", cfg.Cores)
	}
	if cfg.TransitionLatency != 25*sim.Microsecond {
		t.Fatalf("TransitionLatency = %v, want 25µs", cfg.TransitionLatency)
	}
	fast := cfg.Power.Point(cfg.FastLevel)
	slow := cfg.Power.Point(cfg.SlowLevel)
	if fast.Freq != 2*sim.Gigahertz || slow.Freq != 1*sim.Gigahertz {
		t.Fatalf("levels %v / %v, want 2GHz / 1GHz", fast, slow)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Power = nil },
		func(c *Config) { c.FastLevel = c.SlowLevel },
		func(c *Config) { c.FastLevel, c.SlowLevel = c.SlowLevel, c.FastLevel },
		func(c *Config) { c.TransitionLatency = -1 },
		func(c *Config) { c.FastLevel = 9 },
	}
	for i, mutate := range bad {
		cfg := TableIConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestDVFSTransitionLatency(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	d := m.DVFS
	if d.Actual(0) != energy.Slow || d.Target(0) != energy.Slow {
		t.Fatal("core 0 should start slow")
	}
	d.Request(0, energy.Fast)
	if d.Target(0) != energy.Fast {
		t.Fatal("target not committed immediately")
	}
	if d.Actual(0) != energy.Slow {
		t.Fatal("actual changed before latency")
	}
	eng.RunUntil(24 * sim.Microsecond)
	if d.Actual(0) != energy.Slow {
		t.Fatal("actual changed too early")
	}
	eng.RunUntil(26 * sim.Microsecond)
	if d.Actual(0) != energy.Fast {
		t.Fatal("actual did not change after 25µs")
	}
	if d.Transitions() != 1 {
		t.Fatalf("Transitions = %d, want 1", d.Transitions())
	}
}

func TestDVFSCoalescing(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	d := m.DVFS
	d.Request(0, energy.Fast)
	d.Request(0, energy.Fast) // same target: coalesced
	total, coalesced := d.Requests()
	if total != 2 || coalesced != 1 {
		t.Fatalf("requests = %d/%d, want 2/1", total, coalesced)
	}
	// Flip back mid-transition: latest target wins; a chained transition
	// brings actual back to slow.
	eng.RunUntil(10 * sim.Microsecond)
	d.Request(0, energy.Slow)
	eng.Run()
	if d.Actual(0) != energy.Slow || d.Target(0) != energy.Slow {
		t.Fatalf("final = actual %v target %v, want slow/slow", d.Actual(0), d.Target(0))
	}
	if d.Transitions() != 2 {
		t.Fatalf("Transitions = %d, want 2 (chained)", d.Transitions())
	}
}

func TestDVFSFastCounts(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	d := m.DVFS
	d.Request(0, energy.Fast)
	d.Request(1, energy.Fast)
	if d.CommittedFast() != 2 {
		t.Fatalf("CommittedFast = %d, want 2", d.CommittedFast())
	}
	if d.PhysicalFast() != 0 {
		t.Fatalf("PhysicalFast = %d, want 0 before latency", d.PhysicalFast())
	}
	eng.Run()
	if d.PhysicalFast() != 2 {
		t.Fatalf("PhysicalFast = %d, want 2", d.PhysicalFast())
	}
}

func TestSetHeterogeneous(t *testing.T) {
	_, m := newTestMachine(t, testConfig())
	m.SetHeterogeneous(2)
	if !m.IsFastCore(0) || !m.IsFastCore(1) || m.IsFastCore(2) || m.IsFastCore(3) {
		t.Fatal("heterogeneous split wrong")
	}
	if m.DVFS.PhysicalFast() != 2 {
		t.Fatal("SetInitial should change actual immediately")
	}
	if m.DVFS.Transitions() != 0 {
		t.Fatal("SetInitial should not count transitions")
	}
}

func TestCoreExecDuration(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	c := m.Core(0)
	done := sim.Time(-1)
	// 1000 cycles at 1 GHz = 1µs, plus 500ns fixed = 1.5µs.
	c.Exec(1000, 500*sim.Nanosecond, sim.Func(func() { done = eng.Now() }))
	eng.Run()
	if done != 1500*sim.Nanosecond {
		t.Fatalf("done at %v, want 1.5µs", done)
	}
	if c.ExecSegments() != 1 {
		t.Fatalf("ExecSegments = %d", c.ExecSegments())
	}
}

func TestCoreExecScalesWithFrequency(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	m.SetHeterogeneous(1) // core 0 fast
	c := m.Core(0)
	done := sim.Time(-1)
	c.Exec(1000, 500*sim.Nanosecond, sim.Func(func() { done = eng.Now() }))
	eng.Run()
	// 1000 cycles at 2 GHz = 500ns, plus 500ns fixed = 1µs.
	if done != sim.Microsecond {
		t.Fatalf("done at %v, want 1µs", done)
	}
}

func TestCoreMidExecFreqChange(t *testing.T) {
	cfg := testConfig()
	cfg.TransitionLatency = 0 // isolate the rescale math
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	done := sim.Time(-1)
	// 10000 cycles at 1 GHz = 10µs, no fixed part.
	c.Exec(10000, 0, sim.Func(func() { done = eng.Now() }))
	// At 5µs, half the cycles are consumed; the rest runs at 2 GHz in
	// 2.5µs, so completion should be at 7.5µs.
	eng.At(5*sim.Microsecond, sim.Func(func() { m.DVFS.Request(0, energy.Fast) }))
	eng.Run()
	if done != 7500*sim.Nanosecond {
		t.Fatalf("done at %v, want 7.5µs", done)
	}
}

func TestCoreMidExecFreqChangeFixedPart(t *testing.T) {
	cfg := testConfig()
	cfg.TransitionLatency = 0
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	done := sim.Time(-1)
	// 5000 cycles (5µs at 1GHz) + 5µs fixed = 10µs total at slow.
	c.Exec(5000, 5*sim.Microsecond, sim.Func(func() { done = eng.Now() }))
	// Halfway (5µs): 2500 cycles + 2.5µs fixed remain. At 2 GHz that is
	// 1.25µs + 2.5µs = 3.75µs, completing at 8.75µs.
	eng.At(5*sim.Microsecond, sim.Func(func() { m.DVFS.Request(0, energy.Fast) }))
	eng.Run()
	if done != 8750*sim.Nanosecond {
		t.Fatalf("done at %v, want 8.75µs", done)
	}
}

func TestCoreBusyWaitIsFrequencyInvariant(t *testing.T) {
	cfg := testConfig()
	cfg.TransitionLatency = 0
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	done := sim.Time(-1)
	c.BusyWait(10*sim.Microsecond, sim.Func(func() { done = eng.Now() }))
	eng.At(3*sim.Microsecond, sim.Func(func() { m.DVFS.Request(0, energy.Fast) }))
	eng.Run()
	if done != 10*sim.Microsecond {
		t.Fatalf("BusyWait finished at %v, want 10µs regardless of freq", done)
	}
}

func TestCoreIdleDemotion(t *testing.T) {
	cfg := testConfig()
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	halts := 0
	m.OnHalt(func(core int) {
		if core == 0 {
			halts++
		}
	})
	if c.State() != IdleSpin {
		t.Fatalf("initial state = %v", c.State())
	}
	eng.RunUntil(cfg.IdleSpin + sim.Microsecond)
	if c.State() != Halted {
		t.Fatalf("state after spin = %v, want halted", c.State())
	}
	if halts != 1 {
		t.Fatalf("halt listener fired %d times", halts)
	}
	eng.RunUntil(cfg.IdleSpin + cfg.SleepAfter + sim.Microsecond)
	if c.State() != Sleeping {
		t.Fatalf("state after SleepAfter = %v, want sleeping", c.State())
	}
	if c.HaltCount() != 1 {
		t.Fatalf("HaltCount = %d", c.HaltCount())
	}
}

func TestCoreWakeFromHalt(t *testing.T) {
	cfg := testConfig()
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	var wokeAt sim.Time
	var stateAtWake CoreState
	var wakes int
	m.OnWake(func(core int) {
		if core == 0 {
			wakes++
		}
	})
	eng.RunUntil(cfg.IdleSpin + sim.Microsecond) // now halted
	start := eng.Now()
	c.Wake(sim.Func(func() {
		wokeAt = eng.Now()
		stateAtWake = c.State()
	}))
	eng.Run()
	if wokeAt != start+cfg.WakeLatencyC1 {
		t.Fatalf("woke at %v, want %v", wokeAt, start+cfg.WakeLatencyC1)
	}
	if wakes != 1 {
		t.Fatalf("wake listener fired %d times", wakes)
	}
	if stateAtWake != IdleSpin {
		t.Fatalf("state at wake callback = %v, want idle", stateAtWake)
	}
	// With no work dispatched, the core re-enters the idle loop, re-halts
	// and eventually sleeps: that is the intended demotion chain.
	if c.State() != Sleeping {
		t.Fatalf("final state = %v, want sleeping", c.State())
	}
}

func TestCoreWakeFromSleepIsSlower(t *testing.T) {
	cfg := testConfig()
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	eng.RunUntil(cfg.IdleSpin + cfg.SleepAfter + sim.Microsecond) // now C3
	if c.State() != Sleeping {
		t.Fatalf("state = %v, want sleeping", c.State())
	}
	start := eng.Now()
	var wokeAt sim.Time
	c.Wake(sim.Func(func() { wokeAt = eng.Now() }))
	eng.Run()
	if wokeAt != start+cfg.WakeLatencyC3 {
		t.Fatalf("woke at %v, want %v", wokeAt, start+cfg.WakeLatencyC3)
	}
}

func TestCoreWakeFromSpinIsImmediate(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	c := m.Core(0)
	called := false
	c.Wake(sim.Func(func() { called = true }))
	if !called {
		t.Fatal("Wake from IdleSpin should call ready synchronously")
	}
	_ = eng
}

func TestCoreHaltFor(t *testing.T) {
	cfg := testConfig()
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	var halts, wakes int
	m.OnHalt(func(core int) { // other cores idle-halt too; count core 0 only
		if core == 0 {
			halts++
		}
	})
	m.OnWake(func(core int) {
		if core == 0 {
			wakes++
		}
	})
	var doneAt sim.Time
	c.Exec(1000, 0, sim.Func(func() { // 1µs at slow
		c.HaltFor(10*sim.Microsecond, sim.Func(func() { doneAt = eng.Now() }))
	}))
	eng.Run()
	want := sim.Microsecond + 10*sim.Microsecond + cfg.WakeLatencyC1
	if doneAt != want {
		t.Fatalf("HaltFor done at %v, want %v", doneAt, want)
	}
	if halts != 1 || wakes != 1 {
		t.Fatalf("halts/wakes = %d/%d, want 1/1", halts, wakes)
	}
}

func TestCoreExecWhileBusyPanics(t *testing.T) {
	_, m := newTestMachine(t, testConfig())
	c := m.Core(0)
	c.Exec(1000, 0, sim.Func(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("double Exec did not panic")
		}
	}()
	c.Exec(1000, 0, sim.Func(func() {}))
}

func TestCoreBusyTimeAccounting(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	c := m.Core(0)
	c.Exec(2000, 0, sim.Func(func() { c.Idle() })) // 2µs at 1 GHz
	eng.Run()
	if c.BusyTime() != 2*sim.Microsecond {
		t.Fatalf("BusyTime = %v, want 2µs", c.BusyTime())
	}
}

func TestMachineEnergyPlumbing(t *testing.T) {
	cfg := testConfig()
	eng, m := newTestMachine(t, cfg)
	m.Core(0).Exec(1000_000, 0, sim.Func(func() { m.Core(0).Idle() })) // 1ms at slow
	eng.Run()
	joules := m.FinishEnergy()
	if joules <= 0 {
		t.Fatalf("energy = %v, want > 0", joules)
	}
	// Upper bound: all cores active+fast the whole time.
	maxW := cfg.Power.CoreWatts(energy.Fast, energy.C0Active)*float64(cfg.Cores) +
		cfg.Power.UncoreWattsPerCore*float64(cfg.Cores)
	if max := maxW * eng.Now().Seconds(); joules > max {
		t.Fatalf("energy %v exceeds physical max %v", joules, max)
	}
}

// Property: random sequences of Exec segments with random mid-flight
// frequency flips always complete, with total busy time bounded between
// the all-fast and all-slow durations.
func TestCoreFreqChangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		cfg := testConfig()
		cfg.TransitionLatency = sim.Time(rng.Intn(26)) * sim.Microsecond
		eng := sim.NewEngine()
		m := MustNew(eng, cfg)
		c := m.Core(0)

		cycles := int64(rng.Intn(100000) + 1000)
		fixed := sim.Time(rng.Intn(50)) * sim.Microsecond
		var doneAt sim.Time
		c.Exec(cycles, fixed, sim.Func(func() { doneAt = eng.Now(); c.Idle() }))

		// Random frequency flips while (probably) running.
		at := sim.Time(0)
		for i := 0; i < rng.Intn(8); i++ {
			at += sim.Time(rng.Intn(20)+1) * sim.Microsecond
			level := energy.Level(rng.Intn(2))
			eng.At(at, sim.Func(func() { m.DVFS.Request(0, level) }))
		}
		eng.Run()

		slowDur := sim.Cycles(cycles, cfg.Power.Point(cfg.SlowLevel).Freq) + fixed
		fastDur := sim.Cycles(cycles, cfg.Power.Point(cfg.FastLevel).Freq) + fixed
		// Allow 1ns slack for proportional-rescale integer rounding.
		return doneAt >= fastDur-sim.Nanosecond && doneAt <= slowDur+sim.Nanosecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreAccessors(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	c := m.Core(2)
	if c.ID() != 2 {
		t.Fatalf("ID = %d", c.ID())
	}
	if m.Cores() != 4 {
		t.Fatalf("Cores = %d", m.Cores())
	}
	if !c.Active() {
		t.Fatal("idle-spinning core should be ACPI-active (C0)")
	}
	eng.RunUntil(m.Cfg.IdleSpin + sim.Microsecond)
	if c.Active() {
		t.Fatal("halted core should not be active")
	}
	for _, s := range []CoreState{Busy, IdleSpin, Halted, Sleeping, Waking} {
		if s.String() == "" || s.String()[0] == 'C' {
			t.Fatalf("state string %q", s.String())
		}
	}
	if CoreState(99).String() == "" {
		t.Fatal("unknown state should still render")
	}
}

func TestDVFSSettleLatency(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	m.DVFS.Request(0, energy.Fast)
	eng.Run()
	s := m.DVFS.SettleLatency()
	if s.Count() != 1 || s.MeanTime() != m.Cfg.TransitionLatency {
		t.Fatalf("settle latency: count=%d mean=%v", s.Count(), s.MeanTime())
	}
}

func TestBusyTimeWhileRunning(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	c := m.Core(0)
	c.Exec(10_000_000, 0, sim.Func(func() { c.Idle() })) // 10ms at 1 GHz
	eng.RunUntil(4 * sim.Millisecond)
	// Mid-execution, BusyTime must include the open interval.
	if got := c.BusyTime(); got != 4*sim.Millisecond {
		t.Fatalf("BusyTime mid-run = %v, want 4ms", got)
	}
	eng.Run()
	if got := c.BusyTime(); got != 10*sim.Millisecond {
		t.Fatalf("BusyTime final = %v, want 10ms", got)
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	cfg := testConfig()
	cfg.Cores = 0
	MustNew(sim.NewEngine(), cfg)
}

func TestSleepDemotionOnlyFromHalt(t *testing.T) {
	cfg := testConfig()
	eng, m := newTestMachine(t, cfg)
	c := m.Core(0)
	// Keep the core busy past the demotion horizon: it must stay Busy.
	c.Exec(2_000_000, 0, sim.Func(func() { c.Idle() }))
	eng.RunUntil(cfg.IdleSpin + cfg.SleepAfter + sim.Microsecond)
	if c.State() != Busy {
		t.Fatalf("state = %v, want busy (no demotion while running)", c.State())
	}
	eng.Run()
}

func TestSetInitialAfterStartPanics(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	eng.At(sim.Microsecond, sim.Func(func() {}))
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("SetInitial after t=0 did not panic")
		}
	}()
	m.DVFS.SetInitial(0, energy.Fast)
}

func TestC3SleepUsesLessEnergyThanC1(t *testing.T) {
	// Two machines: one core parked in C1 (sleep disabled via huge
	// SleepAfter), one allowed to reach C3; over the same horizon the C3
	// machine must use less energy.
	run := func(sleepAfter sim.Time) float64 {
		cfg := testConfig()
		cfg.Cores = 1
		cfg.SleepAfter = sleepAfter
		eng := sim.NewEngine()
		m := MustNew(eng, cfg)
		eng.RunUntil(20 * sim.Millisecond)
		return m.FinishEnergy()
	}
	withC3 := run(100 * sim.Microsecond)
	noC3 := run(sim.Second)
	if withC3 >= noC3 {
		t.Fatalf("C3 energy %v >= C1 energy %v", withC3, noC3)
	}
}

// TestDVFSRequestZeroAllocs pins the controller's transition
// completion event: a request through to the transition landing
// — rescaling a segment in flight on the core — allocates nothing.
func TestDVFSRequestZeroAllocs(t *testing.T) {
	eng, m := newTestMachine(t, testConfig())
	nop := sim.Func(func() {})
	level := m.Cfg.FastLevel
	allocs := testing.AllocsPerRun(100, func() {
		m.Core(1).Exec(1_000_000, 0, nop)
		m.DVFS.Request(1, level)
		eng.Run()
		if m.DVFS.Actual(1) != level {
			t.Fatalf("transition to %v never landed", level)
		}
		if level == m.Cfg.FastLevel {
			level = m.Cfg.SlowLevel
		} else {
			level = m.Cfg.FastLevel
		}
	})
	if allocs != 0 {
		t.Fatalf("Request allocates %v times per transition, want 0", allocs)
	}
}

// TestDVFSOverlappingTransitionPanics: one transition is in flight per
// core; Request latches newer targets rather than starting another.
func TestDVFSOverlappingTransitionPanics(t *testing.T) {
	_, m := newTestMachine(t, testConfig())
	m.DVFS.Request(0, m.Cfg.FastLevel)
	defer func() {
		if recover() == nil {
			t.Fatal("second transition on a core with one in flight did not panic")
		}
	}()
	m.DVFS.cores[0].begin()
}
