package workloads

import (
	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Blackscholes models the PARSECSs blackscholes benchmark: option-pricing
// timesteps, each a wide fork-join of uniform, fine-grained chunk tasks
// separated by barriers.
//
// Paper-relevant properties (§V-A/V-B): "the number of tasks is very large
// and the load imbalance is low", so criticality-aware scheduling gains
// little, and CATA's per-task reconfigurations can even cost performance
// at 24 fast cores (reconfiguration churn and lock bursts at barriers —
// blackscholes is one of the lock-contended applications of §V-C).
type Blackscholes struct{}

// Name implements Workload.
func (Blackscholes) Name() string { return "blackscholes" }

// Description implements Workload.
func (Blackscholes) Description() string {
	return "fork-join option pricing: barrier-separated timesteps of many uniform fine-grained tasks; low imbalance, reconfiguration-churn sensitive"
}

// The single chunk type. With uniform tasks every instance is equally
// close to the critical path (§II-B: "tasks with very similar criticality
// levels"), so the single annotation marks the type critical; under CATA
// the end-of-task rebalancing then keeps the budget on still-running
// chunks near barriers, at the cost of extra reconfiguration traffic —
// blackscholes is the churn-sensitive benchmark of §V-B/§V-C.
var bsChunk = &tdg.TaskType{Name: "bs_chunk", Criticality: 1}

// Build implements Workload.
func (Blackscholes) Build(seed uint64, scale float64) *program.Program {
	b := newBuilder("blackscholes", seed)
	const (
		timesteps   = 5
		chunks      = 160
		meanDur     = 2200 * sim.Microsecond // at 1 GHz
		jitter      = 0.08                   // low imbalance
		memFraction = 0.30
	)
	n := scaled(chunks, scale)
	b.p.Grow(timesteps*n, timesteps)
	for ts := 0; ts < timesteps; ts++ {
		for c := 0; c < n; c++ {
			b.task(bsChunk, b.jitterDur(meanDur, jitter), memFraction, nil, nil, 0)
		}
		b.barrier()
	}
	return b.p
}
