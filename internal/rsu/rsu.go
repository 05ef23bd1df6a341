// Package rsu implements the Runtime Support Unit (§III-B): a small
// hardware unit that executes the CATA reconfiguration algorithm, relieving
// the runtime of the software cpufreq path and its lock serialization. It
// keeps the same Figure 2/3 table as CATA's software RSM (rsm.Table): per
// core the running task's criticality (Critical / Non-Critical / No Task)
// and acceleration level, plus the power budget, and it drives the DVFS
// controller directly.
//
// The unit is managed through ISA-like operations (rsu_init, rsu_reset,
// rsu_disable, rsu_start_task, rsu_end_task, rsu_read_critic) and supports
// OS virtualization across context switches (§III-B.3).
//
// The paper's unit has two levels: unit costs {0, 1}, where the budget
// counts accelerated cores. The same algorithm runs any number of
// operating levels under a pool of power units — the extension §III leaves
// as future work ("Extending the proposed ideas to more levels of
// acceleration is left as future work").
package rsu

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/rsm"
	"cata/internal/sim"
)

// RSU is the hardware reconfiguration unit. All operations are
// hardware-speed: decisions and DVFS controller writes happen within the
// invoking instruction (the physical V/f transition still takes the
// configured 25 µs). The invoking core's 2-cycle instruction cost is
// charged by the runtime, not here.
//
// Each operating level of the machine has a unit cost approximating its
// dynamic-power increment over the slow level, and the budget is a pool
// of units. The allocation algorithm keeps the paper's structure:
//
//   - task start: grant the highest affordable level (even to non-critical
//     tasks, as in §III-A); a critical task may lower non-critical cores
//     one level at a time until its grant fits;
//   - task end: release the core's units and spend freed units raising
//     the most-starved critical cores.
//
// At costs {0, 1} this is exactly the two-level §III-A rule.
type RSU struct {
	mach    *machine.Machine
	tab     rsm.Table
	enabled bool
	ops     int64
}

// New returns a disabled RSU attached to the machine. unitCost[l] is the
// budget cost of running a core at machine level l: one cost per level,
// the baseline costing 0, non-decreasing. Call Init before use
// (mirroring rsu_init executed by the runtime at startup).
func New(eng *sim.Engine, mach *machine.Machine, unitCost []int) *RSU {
	if len(unitCost) != mach.Cfg.Power.Levels() {
		panic(fmt.Sprintf("rsu: unit costs for %d levels, machine has %d",
			len(unitCost), mach.Cfg.Power.Levels()))
	}
	return &RSU{mach: mach, tab: rsm.NewTable(eng, mach.Cores(), unitCost)}
}

// SetRecorder attaches a flight recorder reporting acceleration grants
// and denials together with the budget state (in units) at decision time.
func (r *RSU) SetRecorder(rec probe.Recorder) { r.tab.SetRecorder(rec) }

// Init implements rsu_init: enable the unit with the given power budget
// in units.
func (r *RSU) Init(budget int) {
	r.tab.SetBudget(budget)
	r.enabled = true
}

// Reset implements rsu_reset: clear all per-core state, decelerating every
// accelerated core.
func (r *RSU) Reset() {
	for i := 0; i < r.mach.Cores(); i++ {
		r.tab.SetCrit(i, rsm.NoTask)
		r.set(i, 0)
	}
}

// Disable implements rsu_disable: Reset and stop accepting operations.
func (r *RSU) Disable() {
	r.Reset()
	r.enabled = false
}

// Enabled reports whether the unit accepts operations.
func (r *RSU) Enabled() bool { return r.enabled }

// Table returns the unit's table: per-core levels, the budget and units
// in use, and the reconfiguration counters.
func (r *RSU) Table() *rsm.Table { return &r.tab }

// ReadCritic implements rsu_read_critic: the criticality field for a core.
func (r *RSU) ReadCritic(core int) rsm.CritState { return r.tab.Crit(core) }

// Ops returns the number of start/end notifications processed.
func (r *RSU) Ops() int64 { return r.ops }

// StartTask implements rsu_start_task(cpu, critic), executed instantly in
// hardware (§III-B.2).
func (r *RSU) StartTask(core int, critical bool) {
	r.mustBeEnabled()
	r.ops++
	t := &r.tab
	t.SetCrit(core, rsm.CritOf(critical))

	// Highest affordable level from the free pool.
	for lvl := t.Top(); lvl > 0; lvl-- {
		if t.Free() >= t.Cost(lvl) {
			r.set(core, lvl)
			return
		}
	}
	if critical {
		// No free units: lower non-critical cores one level at a time,
		// highest level first, until a grant fits (§III-A preemption
		// generalized).
		for lvl := t.Top(); lvl > 0; lvl-- {
			for t.Free() < t.Cost(lvl) {
				victim := t.Victim()
				if victim < 0 {
					break
				}
				r.set(victim, t.Level(victim)-1)
			}
			if t.Free() >= t.Cost(lvl) {
				r.set(core, lvl)
				return
			}
		}
	}
	// Non-critical, or every accelerated core runs a critical task: run
	// slow.
	t.Deny(core)
}

// EndTask implements rsu_end_task(cpu): release the finishing core's
// units and raise starved critical cores, one level per round, while
// the freed units last.
func (r *RSU) EndTask(core int) {
	r.mustBeEnabled()
	r.ops++
	r.tab.SetCrit(core, rsm.NoTask)
	r.set(core, 0)
	for next := r.tab.Starved(); next >= 0; next = r.tab.Starved() {
		r.set(next, r.tab.Level(next)+1)
	}
}

// SaveContext implements the OS side of a context-switch save (§III-B.3):
// it reads the criticality value (to be stored in the kernel
// thread_struct) and sets No Task, re-scheduling the remaining tasks
// exactly as a task end does.
func (r *RSU) SaveContext(core int) rsm.CritState {
	saved := r.tab.Crit(core)
	r.EndTask(core)
	return saved
}

// RestoreContext implements the OS side of a context-switch restore: the
// thread's saved criticality value is written back, competing for
// acceleration like a task start.
func (r *RSU) RestoreContext(core int, saved rsm.CritState) {
	if saved == rsm.NoTask {
		return
	}
	r.StartTask(core, saved == rsm.Critical)
}

// set moves a core to a level in the table and, if it changed, programs
// the DVFS controller.
func (r *RSU) set(core, lvl int) {
	if r.tab.Set(core, lvl) {
		r.mach.DVFS.Request(core, energy.Level(lvl))
	}
}

func (r *RSU) mustBeEnabled() {
	if !r.enabled {
		panic("rsu: operation on disabled unit")
	}
}

// ThreeLevelModel returns a power model with the dual-rail points of
// Table I plus an intermediate 1.5 GHz / 0.9 V level, for the multi-level
// extension experiments.
func ThreeLevelModel() *energy.Model {
	m := energy.Default()
	m.Points = []energy.OperatingPoint{
		{Freq: 1 * sim.Gigahertz, Voltage: 0.8},
		{Freq: 1500 * sim.Megahertz, Voltage: 0.9},
		{Freq: 2 * sim.Gigahertz, Voltage: 1.0},
	}
	return m
}

// ThreeLevelUnitCosts returns the unit costs {0, 1, 2} for the three-level
// model: the mid level's dynamic-power increment over slow (~0.72 W) is
// roughly half the fast level's (~1.7 W), so fast = 2 units, mid = 1.
func ThreeLevelUnitCosts() []int { return []int{0, 1, 2} }
