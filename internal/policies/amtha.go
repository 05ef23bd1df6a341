package policies

import (
	"fmt"

	"cata/internal/machine"
	"cata/internal/program"
	"cata/internal/sched"
	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/tdg"
)

// AMTHA is the first policy registered from outside the built-in set:
// the Automatic Mapping Task on Heterogeneous Architectures algorithm of
// De Giusti et al. (see PAPERS.md). Where CATA accelerates critical
// tasks dynamically, AMTHA decides everything statically: it list-walks
// the task graph in submission order and maps each task to the core with
// the earliest estimated finish, tracking per-core accumulated time
// under the static fast/slow frequencies. Execution then honors the
// mapping verbatim — each core only ever dequeues its own tasks — which
// makes AMTHA the repo's reference point for static mapping versus
// CATA's dynamic criticality-driven reconfiguration.
//
// Ties between equal-finish cores are resolved by the `tiebreak`
// parameter: lowest core index, a rotating cursor that spreads ties
// across cores, or least accumulated time.

// amthaTieBreak selects the rule for equal-finish candidates.
type amthaTieBreak int

const (
	tieIndex  amthaTieBreak = iota // lowest core index wins
	tieSpread                      // rotate a cursor across ties
	tieAccum                       // least accumulated time wins
)

// amthaMapper holds the static assignment state: per-core accumulated
// time estimates and the task-ID → core map. Closed-system programs are
// mapped up front (premap); open-system arrivals are mapped on first
// sight with the same rule.
type amthaMapper struct {
	freq     []sim.Hertz // per-core static frequency
	acc      []sim.Time  // per-core accumulated finish estimate
	assigned map[int]int // task ID → core
	tie      amthaTieBreak
	cursor   int // rotation cursor for tieSpread
}

func newAmthaMapper(mach *machine.Machine, tie amthaTieBreak) *amthaMapper {
	n := mach.Cores()
	m := &amthaMapper{
		freq:     make([]sim.Hertz, n),
		acc:      make([]sim.Time, n),
		assigned: map[int]int{},
		tie:      tie,
	}
	for i := 0; i < n; i++ {
		m.freq[i] = mach.Core(i).Freq()
	}
	return m
}

// premap fixes the core of every task in the program. The runtime
// assigns task IDs sequentially in submission order, so walking Items in
// order reproduces the IDs the tasks will carry. Token producers'
// estimated finish times feed consumers' earliest-start estimates.
func (m *amthaMapper) premap(prog *program.Program) {
	finish := map[tdg.Token]sim.Time{}
	id := 0
	for _, it := range prog.Items {
		if it.Task == nil {
			continue
		}
		var ready sim.Time
		for _, tok := range it.Task.Ins {
			if f := finish[tok]; f > ready {
				ready = f
			}
		}
		core, fin := m.place(ready, it.Task.CPUCycles, it.Task.MemTime+it.Task.IOTime)
		m.assigned[id] = core
		m.acc[core] = fin
		for _, tok := range it.Task.Outs {
			finish[tok] = fin
		}
		id++
	}
}

// place picks the core with the earliest estimated finish for a task
// becoming ready at ready, applying the tie-break rule among equals.
func (m *amthaMapper) place(ready sim.Time, cycles int64, fixed sim.Time) (int, sim.Time) {
	best, bestFin := -1, sim.Time(0)
	n := len(m.freq)
	for c := 0; c < n; c++ {
		i := c
		if m.tie == tieSpread {
			i = (m.cursor + c) % n
		}
		start := m.acc[i]
		if ready > start {
			start = ready
		}
		fin := start + sim.Cycles(cycles, m.freq[i]) + fixed
		switch {
		case best < 0 || fin < bestFin:
			best, bestFin = i, fin
		case fin == bestFin && m.tie == tieAccum && m.acc[i] < m.acc[best]:
			best = i
		}
	}
	if m.tie == tieSpread {
		m.cursor = (best + 1) % n
	}
	return best, bestFin
}

// CoreOf returns the task's statically assigned core. Tasks outside the
// precomputed range (open-system arrivals) are mapped on first sight
// using their actual ready time.
func (m *amthaMapper) CoreOf(t *tdg.Task) int {
	if c, ok := m.assigned[t.ID]; ok {
		return c
	}
	core, fin := m.place(t.ReadyAt, t.CPUCycles, t.MemTime+t.IOTime)
	m.assigned[t.ID] = core
	m.acc[core] = fin
	return core
}

// init registers AMTHA. The machine is statically heterogeneous like the
// FIFO/CATS experiments; there is no reconfiguration mechanism — the
// whole policy is the mapping.
func init() {
	Register(Entry{
		Name:      "AMTHA",
		Extension: true,
		Summary:   "static task-to-core mapping by accumulated-time list scheduling (De Giusti et al.)",
		Params: []spec.ParamDoc{{
			Key:     "tiebreak",
			Kind:    spec.Enum,
			Default: "index",
			Help:    "rule for equal-finish cores: lowest index, rotating spread, or least accumulated time",
			Choices: []string{"index", "spread", "accum"},
		}},
		Build: func(p spec.Params, env *Env) error {
			var tie amthaTieBreak
			switch rule := p.Str("tiebreak", "index"); rule {
			case "index":
				tie = tieIndex
			case "spread":
				tie = tieSpread
			case "accum":
				tie = tieAccum
			default:
				return fmt.Errorf("policies: AMTHA: unreachable tiebreak %q", rule)
			}
			env.Mach.SetHeterogeneous(env.FastCores)
			m := newAmthaMapper(env.Mach, tie)
			if env.Cfg.Program != nil {
				m.premap(env.Cfg.Program)
			}
			cores := env.Mach.Cores()
			env.Cfg.NewScheduler = func(info sched.CoreInfo) sched.Scheduler {
				return sched.NewStaticMap(cores, info, m.CoreOf)
			}
			return nil
		},
	})
}
