package rts

import (
	"testing"

	"cata/internal/rsu"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// TestRSUReconfigZeroAllocs pins the RSU driver's retire events: an rsu_start_task/rsu_end_task pair, with the
// hardware's DVFS transitions, allocates nothing in steady state.
func TestRSUReconfigZeroAllocs(t *testing.T) {
	eng, m := newMachine(t, 4)
	unit := rsu.New(eng, m, []int{0, 1})
	unit.Init(1)
	rc := NewRSUReconfig(unit, m, 4)
	nop := sim.Func(func() {})
	task := &tdg.Task{Critical: true}
	start := sim.Func(func() { rc.TaskStart(0, task, nop) })
	end := sim.Func(func() { rc.TaskEnd(0, task, nop) })
	cycle := func() {
		m.Core(0).Exec(0, 0, start)
		eng.Run()
		m.Core(0).Exec(0, 0, end)
		eng.Run()
	}
	cycle()
	accels, _ := unit.Table().Reconfigs()
	if accels == 0 {
		t.Fatal("rsu_start_task of a critical task with free budget accelerated nothing")
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per start/end pair, want 0", allocs)
	}
}

// TestRSUReconfigOverlapPanics: a core issues one RSU instruction at a
// time.
func TestRSUReconfigOverlapPanics(t *testing.T) {
	eng, m := newMachine(t, 2)
	unit := rsu.New(eng, m, []int{0, 1})
	unit.Init(1)
	rc := NewRSUReconfig(unit, m, 4)
	task := &tdg.Task{}
	rc.TaskStart(0, task, sim.Func(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("second RSU instruction on a core with one in flight did not panic")
		}
	}()
	rc.TaskEnd(0, task, sim.Func(func() {}))
}
