package rsm

import (
	"testing"

	"cata/internal/probe"
	"cata/internal/sim"
)

func TestNewTableValidatesCosts(t *testing.T) {
	for _, costs := range [][]int{
		{0},       // one level
		{1, 2},    // nonzero baseline
		{0, 2, 1}, // decreasing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("costs %v accepted", costs)
				}
			}()
			NewTable(sim.NewEngine(), 2, costs)
		}()
	}
}

func TestTableBudgetBounds(t *testing.T) {
	tab := NewTable(sim.NewEngine(), 4, []int{0, 1, 2})
	tab.SetBudget(8) // every core at the top level
	for _, units := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBudget(%d) accepted on 4 cores at 2 units", units)
				}
			}()
			tab.SetBudget(units)
		}()
	}
	tab.SetBudget(1)
	tab.Set(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("raising past the budget did not panic")
		}
	}()
	tab.Set(1, 1)
}

func TestTableVictimAndStarved(t *testing.T) {
	tab := NewTable(sim.NewEngine(), 5, []int{0, 1, 2})
	tab.SetBudget(10)
	for core, c := range []CritState{NonCritical, NonCritical, Critical, Critical, Critical} {
		tab.SetCrit(core, c)
	}
	tab.Set(0, 1)
	tab.Set(1, 2)
	tab.Set(2, 1)
	tab.Set(4, 1)
	// The victim is the non-critical core at the highest level.
	if v := tab.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	// The starved core is the critical one at the lowest level.
	if s := tab.Starved(); s != 3 {
		t.Fatalf("starved = %d, want 3", s)
	}
	tab.Set(3, 1)
	// Ties go to the lowest index.
	if s := tab.Starved(); s != 2 {
		t.Fatalf("starved = %d, want 2", s)
	}
	// A raise that does not fit in the free units is not offered.
	tab.SetBudget(tab.Used())
	if s := tab.Starved(); s != -1 {
		t.Fatalf("starved = %d with no free units, want -1", s)
	}
	tab.SetCrit(0, Critical)
	tab.SetCrit(1, Critical)
	if v := tab.Victim(); v != -1 {
		t.Fatalf("victim = %d with every raised core critical, want -1", v)
	}
}

// recorded counts the table's probe events.
type recorded struct {
	probe.Nop
	grants, denies, lastUsed int
}

func (r *recorded) AccelGrant(_ sim.Time, _ int, _ bool, used, _ int) {
	r.grants++
	r.lastUsed = used
}

func (r *recorded) AccelDeny(sim.Time, int, bool, int, int) { r.denies++ }

func TestTableCountsAndUnitTime(t *testing.T) {
	eng := sim.NewEngine()
	tab := NewTable(eng, 2, []int{0, 1, 2})
	tab.SetBudget(3)
	rec := &recorded{}
	tab.SetRecorder(rec)
	tab.Set(0, 2) // 2 units from t=0
	eng.At(10, sim.Func(func() { tab.Set(1, 1) }))
	eng.At(30, sim.Func(func() {
		tab.Set(0, 0)
		tab.Deny(0)
	}))
	eng.At(40, sim.Func(func() {}))
	eng.Run()
	// 2 units for 10, 3 for 20, 1 for 10.
	if got := tab.UnitTime(); got != 2*10+3*20+1*10 {
		t.Fatalf("unit time = %v, want 90", got)
	}
	if a, d := tab.Reconfigs(); a != 2 || d != 1 {
		t.Fatalf("reconfigs = %d/%d, want 2/1", a, d)
	}
	if tab.Denied() != 1 || rec.grants != 2 || rec.denies != 1 || rec.lastUsed != 3 {
		t.Fatalf("denied %d, probe grants %d denies %d last used %d; want 1, 2, 1, 3",
			tab.Denied(), rec.grants, rec.denies, rec.lastUsed)
	}
	if tab.Set(1, 1) {
		t.Fatal("setting a core to its own level reported a change")
	}
}
