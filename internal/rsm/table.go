package rsm

import (
	"fmt"

	"cata/internal/probe"
	"cata/internal/sim"
)

// CritState is the per-core criticality field of Figure 2/3.
type CritState int

const (
	// NoTask: the core is not executing a task.
	NoTask CritState = iota
	// NonCritical: the core executes a non-critical task.
	NonCritical
	// Critical: the core executes a critical task.
	Critical
)

// String returns a one-character state marker.
func (c CritState) String() string {
	switch c {
	case NoTask:
		return "-"
	case NonCritical:
		return "NC"
	case Critical:
		return "C"
	default:
		return fmt.Sprintf("CritState(%d)", int(c))
	}
}

// CritOf returns the criticality field of a starting task.
func CritOf(critical bool) CritState {
	if critical {
		return Critical
	}
	return NonCritical
}

// Table is the reconfiguration table of Figure 2/3 that the software
// RSM and the hardware RSU both keep: each core's criticality field and
// acceleration level, a unit cost per level and the power budget in
// units. The paper's two-level table is costs {0, 1}: level 1 is the
// accelerated bit and the budget counts accelerated cores. More levels
// generalize it to a pool of power units (see internal/rsu).
//
// The table does bookkeeping only: unit accounting and the budget
// invariant, reconfiguration counters, the units-in-use time integral
// and grant/deny probes. Its caller drives the frequency change each
// level change stands for.
type Table struct {
	eng     *sim.Engine
	cost    []int // indexed by level
	minStep int   // cheapest one-level raise
	budget  int
	used    int
	cores   []coreEntry

	accels, decels, denies int64
	unitTime, unitMark     sim.Time

	// rec, when non-nil, receives grant/deny events with budget state.
	rec probe.Recorder
}

// coreEntry is one core's row of the table.
type coreEntry struct {
	crit  CritState
	level int
}

// NewTable returns an empty table for cores cores with a zero budget.
// cost[l] is the unit cost of running a core at level l: cost[0] must
// be 0 (the baseline level is free) and costs must not decrease with
// level. The table keeps cost; the caller must not modify it.
func NewTable(eng *sim.Engine, cores int, cost []int) Table {
	if len(cost) < 2 || cost[0] != 0 {
		panic(fmt.Sprintf("rsm: unit costs %v: want at least two levels, the baseline costing 0", cost))
	}
	minStep := cost[1]
	for i := 1; i < len(cost); i++ {
		if cost[i] < cost[i-1] {
			panic(fmt.Sprintf("rsm: unit costs %v decrease with level", cost))
		}
		minStep = min(minStep, cost[i]-cost[i-1])
	}
	return Table{eng: eng, cost: cost, minStep: minStep, cores: make([]coreEntry, cores)}
}

// SetBudget sets the power budget in units: at most every core at the
// top level.
func (t *Table) SetBudget(units int) {
	if limit := len(t.cores) * t.cost[t.Top()]; units < 0 || units > limit {
		panic(fmt.Sprintf("rsm: budget %d out of range [0,%d]", units, limit))
	}
	t.budget = units
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state at decision time.
func (t *Table) SetRecorder(rec probe.Recorder) { t.rec = rec }

// Budget returns the power budget in units.
func (t *Table) Budget() int { return t.budget }

// Used returns the units granted; it never exceeds Budget. On a
// two-level table it is the accelerated-core count.
func (t *Table) Used() int { return t.used }

// Free returns the units not granted.
func (t *Table) Free() int { return t.budget - t.used }

// Top returns the highest level.
func (t *Table) Top() int { return len(t.cost) - 1 }

// Cost returns the unit cost of a level.
func (t *Table) Cost(level int) int { return t.cost[level] }

// Crit returns a core's criticality field.
func (t *Table) Crit(core int) CritState { return t.cores[core].crit }

// SetCrit writes a core's criticality field.
func (t *Table) SetCrit(core int, c CritState) { t.cores[core].crit = c }

// Level returns a core's granted level.
func (t *Table) Level(core int) int { return t.cores[core].level }

// Accelerated reports whether a core holds any units.
func (t *Table) Accelerated(core int) bool { return t.cores[core].level > 0 }

// Reconfigs returns how many level changes raised and lowered a core.
func (t *Table) Reconfigs() (accels, decels int64) { return t.accels, t.decels }

// Denied returns how many task starts ended without a grant.
func (t *Table) Denied() int64 { return t.denies }

// UnitTime returns the integral of the units in use over simulated time
// so far. Dividing by budget × makespan yields the power-budget
// utilization.
func (t *Table) UnitTime() sim.Time {
	return t.unitTime + sim.Time(t.used)*(t.eng.Now()-t.unitMark)
}

// Set moves a core to level and reports whether its level changed. A
// raise is reported to the recorder as a grant. Exceeding the budget
// panics: the caller must free units first.
func (t *Table) Set(core, level int) bool {
	e := &t.cores[core]
	if e.level == level {
		return false
	}
	now := t.eng.Now()
	t.unitTime += sim.Time(t.used) * (now - t.unitMark)
	t.unitMark = now
	t.used += t.cost[level] - t.cost[e.level]
	if t.used > t.budget {
		panic(fmt.Sprintf("rsm: budget exceeded: %d > %d", t.used, t.budget))
	}
	raised := level > e.level
	e.level = level
	if !raised {
		t.decels++
		return true
	}
	t.accels++
	if t.rec != nil {
		t.rec.AccelGrant(now, core, e.crit == Critical, t.used, t.budget)
	}
	return true
}

// Deny records a task start on core that ended without a grant.
func (t *Table) Deny(core int) {
	t.denies++
	if t.rec != nil {
		t.rec.AccelDeny(t.eng.Now(), core, t.cores[core].crit == Critical, t.used, t.budget)
	}
}

// Victim returns the non-critical core at the highest level above the
// baseline, or -1. The lowest index breaks ties, as a linear table scan
// does.
func (t *Table) Victim() int {
	best, top := -1, t.Top()
	for i, e := range t.cores {
		if e.crit != NonCritical || e.level == 0 || (best >= 0 && e.level <= t.cores[best].level) {
			continue
		}
		if e.level == top {
			return i // no level is higher
		}
		best = i
	}
	return best
}

// Starved returns the critical core at the lowest level below the top
// whose next level fits in the free units, or -1. The lowest index
// breaks ties.
func (t *Table) Starved() int {
	free, top := t.Free(), t.Top()
	if free < t.minStep {
		return -1 // no raise fits
	}
	best := -1
	for i, e := range t.cores {
		if e.crit != Critical || e.level == top || free < t.cost[e.level+1]-t.cost[e.level] ||
			(best >= 0 && e.level >= t.cores[best].level) {
			continue
		}
		if e.level == 0 {
			return i // no level is lower
		}
		best = i
	}
	return best
}
