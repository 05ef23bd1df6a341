package workloads

import (
	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Bodytrack models the PARSECSs bodytrack benchmark: a particle-filter
// body tracker processing camera frames through a pipeline of stages with
// widely different granularities ("task duration can change up to an order
// of magnitude among task types", §V-A).
//
// Per frame: a wide fan of short edge-detection tasks, a narrower layer of
// heavier particle-weight tasks, and one long serial resample task that
// gates the next frame. The resample chain is the critical path: static
// annotations mark it critical, CATS runs it on fast cores, CATA/RSU
// accelerate it directly. Frames overlap through dependences (no
// barriers), so reconfiguration traffic is continuous — bodytrack is one
// of the lock-contended applications where the RSU gains most (8.5% over
// CATA at 24 fast cores, §V-C).
type Bodytrack struct{}

// Name implements Workload.
func (Bodytrack) Name() string { return "bodytrack" }

// Description implements Workload.
func (Bodytrack) Description() string {
	return "particle-filter pipeline: per-frame edge fan → particle layer → serial critical resample; 10× duration spread across types"
}

var (
	btEdge     = &tdg.TaskType{Name: "edge_detect", Criticality: 0}
	btParticle = &tdg.TaskType{Name: "particle_weights", Criticality: 0}
	btResample = &tdg.TaskType{Name: "resample", Criticality: 1}
)

// Build implements Workload.
func (Bodytrack) Build(seed uint64, scale float64) *program.Program {
	b := newBuilder("bodytrack", seed)
	const (
		frames       = 10
		edgeTasks    = 40
		particleWide = 14
		edgeDur      = 500 * sim.Microsecond // ~10× below resample
		particleDur  = 1800 * sim.Microsecond
		resampleDur  = 4500 * sim.Microsecond
		memFraction  = 0.30
	)
	nEdge := scaled(edgeTasks, scale)
	nPart := scaled(particleWide, scale)
	b.p.Grow(frames*(nEdge+nPart+1), 0)

	prevResample := tdg.Token(0) // no producer for frame 0
	for f := 0; f < frames; f++ {
		// Edge detection: wide and short, per-frame image processing with
		// no cross-frame dependence — frames overlap in flight, so the
		// machine stays busy while a resample runs (the §V-D "pipeline
		// applications that overlap different types of tasks").
		edgeOut := b.tokens(nEdge)
		for i := 0; i < nEdge; i++ {
			b.task(btEdge, b.jitterDur(edgeDur, 0.25), memFraction,
				nil, []tdg.Token{edgeOut[i]}, 0)
		}
		// Particle weights: heavier; consume this frame's edge maps and
		// the particle state from the previous frame's resample.
		partOut := b.tokens(nPart)
		per := (nEdge + nPart - 1) / nPart
		for i := 0; i < nPart; i++ {
			lo, hi := i*per, (i+1)*per
			if hi > nEdge {
				hi = nEdge
			}
			var ins []tdg.Token
			if lo < hi {
				ins = append(ins, edgeOut[lo:hi]...)
			} else if nEdge > 0 {
				ins = append(ins, edgeOut[nEdge-1])
			}
			if prevResample != 0 {
				ins = append(ins, prevResample)
			}
			b.task(btParticle, b.lognormDur(particleDur, 0.35), memFraction,
				ins, []tdg.Token{partOut[i]}, 0)
		}
		// Resample: one long serial critical task gating the next frame's
		// particle layer. Memory-heavy (it permutes the whole particle
		// set), so acceleration helps but does not halve it.
		res := b.token()
		b.task(btResample, b.jitterDur(resampleDur, 0.10), 0.45,
			partOut, []tdg.Token{res}, 0)
		prevResample = res
	}
	return b.p
}
