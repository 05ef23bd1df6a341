package workloads

import (
	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Swaptions models the PARSECSs swaptions benchmark: Monte-Carlo pricing of
// a portfolio of swaptions, parallelized as coarse fork-join tasks (one per
// swaption batch) with substantial duration variance between batches.
//
// Paper-relevant properties: fork-join with "a large amount of load
// imbalance" (§V-B) — near each barrier a few straggler tasks hold the
// phase open while other cores idle. CATA's budget reassignment to the
// remaining running tasks is the headline win here; CATS gains nothing
// (uniform criticality) and TurboMode is competitive (§V-D).
type Swaptions struct{}

// Name implements Workload.
func (Swaptions) Name() string { return "swaptions" }

// Description implements Workload.
func (Swaptions) Description() string {
	return "fork-join Monte-Carlo pricing: coarse tasks with heavy duration variance; straggler-bound barriers reward CATA's budget reassignment"
}

// One coarse simulation type, annotated critical so end-of-task
// rebalancing accelerates stragglers (all tasks have similar criticality).
var swSim = &tdg.TaskType{Name: "sw_sim", Criticality: 1}

// Build implements Workload.
func (Swaptions) Build(seed uint64, scale float64) *program.Program {
	b := newBuilder("swaptions", seed)
	const (
		phases      = 3
		batches     = 128
		meanDur     = 2600 * sim.Microsecond
		sigma       = 0.55 // heavy-tailed imbalance
		memFraction = 0.20 // compute-dominated
	)
	n := scaled(batches, scale)
	b.p.Grow(phases*n, phases)
	for ph := 0; ph < phases; ph++ {
		for i := 0; i < n; i++ {
			b.task(swSim, b.lognormDur(meanDur, sigma), memFraction, nil, nil, 0)
		}
		b.barrier()
	}
	return b.p
}
