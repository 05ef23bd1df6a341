package rsu

import (
	"testing"

	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/sim"
)

func haRig(t *testing.T, cores, budget int) (*sim.Engine, *machine.Machine, *RSU, *HaltAware) {
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
	return eng, m, r, NewHaltAware(r, m)
}

func TestHaltAwareReleasesBudgetDuringIO(t *testing.T) {
	eng, m, r, ha := haRig(t, 4, 1)
	// Task on core 0 takes the only budget slot, then blocks on IO.
	r.StartTask(0, true)
	if !r.Table().Accelerated(0) {
		t.Fatal("setup: core 0 should hold the budget")
	}
	var critAtWake rsm.CritState = -1
	var ioDone bool
	m.Core(0).Exec(1000, 0, sim.Func(func() {
		m.Core(0).HaltFor(200*sim.Microsecond, sim.Func(func() {
			// Back from IO, still inside the task: criticality must be
			// restored, but core 1 (running critical) keeps the slot.
			critAtWake = r.ReadCritic(0)
			ioDone = true
			r.EndTask(0) // task completes; worker would idle next
			m.Core(0).Idle()
		}))
	}))
	// While core 0 sleeps, a critical task starts on core 1.
	eng.At(50*sim.Microsecond, sim.Func(func() {
		m.Core(1).Exec(0, 0, sim.Func(func() { r.StartTask(1, true) }))
	}))

	eng.RunUntil(100 * sim.Microsecond) // inside the IO halt
	if r.Table().Accelerated(0) {
		t.Fatal("halted core kept its budget")
	}
	if !r.Table().Accelerated(1) {
		t.Fatal("budget not handed to the running critical task")
	}
	if ha.Reclaims() != 1 {
		t.Fatalf("reclaims = %d", ha.Reclaims())
	}
	eng.Run()
	if !ioDone {
		t.Fatal("IO never completed")
	}
	if critAtWake != rsm.Critical {
		t.Fatalf("criticality not restored at wake: %v", critAtWake)
	}
	if r.Table().Used() > r.Table().Budget() {
		t.Fatal("budget exceeded")
	}
}

func TestHaltAwareRestoresAccelerationOnWake(t *testing.T) {
	eng, m, r, _ := haRig(t, 4, 1)
	r.StartTask(0, true)
	var wokeAccelerated bool
	m.Core(0).Exec(1000, 0, sim.Func(func() {
		m.Core(0).HaltFor(100*sim.Microsecond, sim.Func(func() {
			wokeAccelerated = r.Table().Accelerated(0)
			r.EndTask(0)
			m.Core(0).Idle()
		}))
	}))
	eng.Run()
	// Nothing competed during the halt: the task must regain its slot.
	if !wokeAccelerated {
		t.Fatal("task did not regain acceleration after IO")
	}
}

func TestHaltAwareIgnoresIdleHalts(t *testing.T) {
	eng, _, r, ha := haRig(t, 2, 1)
	// No tasks at all: idle cores halt and sleep; nothing to park.
	eng.RunUntil(5 * sim.Millisecond)
	if ha.Reclaims() != 0 {
		t.Fatalf("idle halts counted as reclaims: %d", ha.Reclaims())
	}
	if r.Table().Used() != 0 {
		t.Fatal("phantom acceleration")
	}
}

func TestHaltAwareNonAcceleratedTaskParksQuietly(t *testing.T) {
	eng, m, r, ha := haRig(t, 4, 1)
	r.StartTask(0, true) // takes the slot
	r.StartTask(1, true) // critical, non-accelerated
	// Keep core 0 genuinely busy so its slot-holding matches its RSU
	// state for the duration of the test.
	m.Core(0).Exec(10_000_000, 0, sim.Func(func() {
		r.EndTask(0)
		m.Core(0).Idle()
	}))
	var sawCrit rsm.CritState = -1
	m.Core(1).Exec(1000, 0, sim.Func(func() {
		m.Core(1).HaltFor(50*sim.Microsecond, sim.Func(func() {
			sawCrit = r.ReadCritic(1)
			r.EndTask(1)
			m.Core(1).Idle()
		}))
	}))
	eng.RunUntil(100 * sim.Microsecond)
	if ha.Reclaims() != 0 {
		t.Fatalf("non-accelerated halt counted as reclaim: %d", ha.Reclaims())
	}
	if sawCrit != rsm.Critical {
		t.Fatalf("criticality not restored on wake: %v", sawCrit)
	}
	if !r.Table().Accelerated(0) {
		t.Fatal("unrelated core lost its budget")
	}
	eng.Run()
}
