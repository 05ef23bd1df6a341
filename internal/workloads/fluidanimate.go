package workloads

import (
	"fmt"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Fluidanimate models the PARSECSs fluidanimate benchmark: an SPH fluid
// simulation over a 3D grid, task-parallelized by spatial blocks. Each
// frame runs eight sub-phases (the paper: "Fluidanimate has the maximum
// number of task types, eight"); a block's task in sub-phase s depends on
// the same and neighboring blocks in sub-phase s-1 ("each task can have up
// to nine parent tasks"). Frames are separated by barriers; sub-phases are
// chained purely by dependences, so the live TDG within a frame is large
// and dense.
//
// Paper-relevant properties: short tasks and a dense TDG make the
// bottom-level estimator's exploration costly and its criticality labels
// counterproductive (CATS+BL loses up to 9.8%, §V-A); boundary blocks are
// lighter than interior ones, creating wavefront imbalance that CATA's
// budget reassignment exploits; barrier-adjacent reconfiguration bursts
// contend the CATA lock, giving CATA+RSU its largest win (40.2% over FIFO
// at 24 fast cores, §V-C).
type Fluidanimate struct{}

// Name implements Workload.
func (Fluidanimate) Name() string { return "fluidanimate" }

// Description implements Workload.
func (Fluidanimate) Description() string {
	return "3D stencil SPH: frames of 8 dependence-chained sub-phases over a block grid (≤9 parents/task); dense TDG, short tasks, wavefront imbalance"
}

// The eight sub-phase task types, all annotated critical: in a stencil
// every wavefront straggler holds the next sub-phase open, so profiling
// shows every type on the critical path at its turn (§II-B: "tasks with
// very similar criticality levels") — and criticality is what lets CATA's
// end-of-task rebalancing chase the wave tails. The heavy compute
// sub-phases dominate the durations; the bookkeeping ones are cheaper.
var fluidHeavy = map[string]bool{
	"compute_densities": true, "compute_forces": true, "advance_particles": true,
}

var fluidTypes = func() []*tdg.TaskType {
	names := []string{
		"rebuild_grid", "init_densities", "compute_densities", "densities_edges",
		"init_forces", "compute_forces", "forces_edges", "advance_particles",
	}
	ts := make([]*tdg.TaskType, len(names))
	for i, n := range names {
		ts[i] = &tdg.TaskType{Name: n, Criticality: 1}
	}
	return ts
}()

// Build implements Workload.
func (Fluidanimate) Build(seed uint64, scale float64) *program.Program {
	b := newBuilder("fluidanimate", seed)
	const (
		frames      = 3
		grid        = 8 // grid×grid blocks: wavefronts wider than the machine
		meanDur     = 1600 * sim.Microsecond
		memFraction = 0.35 // stencil: memory-bound-ish
	)
	// Scale shrinks the grid edge, keeping ≥3 so the 9-parent neighbor
	// structure survives.
	g := grid
	if scale > 0 && scale < 1 {
		g = scaled(grid*grid, scale)
		// Convert area back to an edge length.
		for g2 := 3; g2 <= grid; g2++ {
			if g2*g2 >= g {
				g = g2
				break
			}
		}
		if g < 3 {
			g = 3
		}
	}

	// One token per (block, sub-phase ring slot): task (s, x, y) reads the
	// phase s-1 tokens of its neighborhood and writes its own slot.
	tok := func(s, x, y int) tdg.Token {
		// Two rings (s-1 and s) are alive at once; allocate per sub-phase
		// per frame to keep tokens unique across the whole run.
		return tdg.Token(uint64(s)*uint64(g*g) + uint64(x*g+y) + 1_000_000)
	}
	b.p.Grow(frames*len(fluidTypes)*g*g, frames*(len(fluidTypes)/2))
	subphase := 0
	for f := 0; f < frames; f++ {
		for s := 0; s < len(fluidTypes); s++ {
			for x := 0; x < g; x++ {
				for y := 0; y < g; y++ {
					var ins []tdg.Token
					if subphase > 0 {
						for dx := -1; dx <= 1; dx++ {
							for dy := -1; dy <= 1; dy++ {
								nx, ny := x+dx, y+dy
								if nx < 0 || ny < 0 || nx >= g || ny >= g {
									continue
								}
								ins = append(ins, tok(subphase-1, nx, ny))
							}
						}
					}
					// Particle counts per block vary heavily as the fluid
					// sloshes (wavefront imbalance); boundary blocks carry
					// fewer particles. The heavy compute sub-phases
					// dominate; the bookkeeping sub-phases are cheaper.
					base := meanDur
					sigma := 0.45
					if !fluidHeavy[fluidTypes[s].Name] {
						base = meanDur * 45 / 100
						sigma = 0.30
					}
					dur := b.lognormDur(base, sigma)
					if x == 0 || y == 0 || x == g-1 || y == g-1 {
						dur = dur * 55 / 100
					}
					b.task(fluidTypes[s], dur, memFraction,
						ins, []tdg.Token{tok(subphase, x, y)}, 0)
				}
			}
			subphase++
			// PARSECSs fluidanimate mixes dependences with taskwaits:
			// neighbor dependences chain consecutive sub-phases, and a
			// taskwait closes every second sub-phase. The barrier tails
			// are where CATA's budget reassignment pays off and where
			// reconfiguration bursts contend the CATA lock (§V-B/§V-C).
			if s%2 == 1 {
				b.barrier()
			}
		}
	}
	if b.p.Tasks() == 0 {
		panic(fmt.Sprintf("fluidanimate: empty program (grid %d)", g))
	}
	return b.p
}
