package workloads

import (
	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Dedup models the PARSECSs dedup benchmark: a deduplicating compression
// pipeline. A serial fragmenter splits the input stream into coarse
// chunks; each chunk is refined and compressed in parallel; a serial
// writer emits results in order. The paper singles dedup out as the
// application where criticality-aware scheduling pays most ("compute-
// intensive tasks followed by I/O-intensive tasks to write results that
// are in the critical path", §V-A; CATS reaches 20.2%).
//
// The fragment and write chains are annotated critical; the writer blocks
// in the kernel for its IO time, which is exactly the case where TurboMode
// reclaims budget that CATA leaves parked on a halted core (§V-D).
type Dedup struct{}

// Name implements Workload.
func (Dedup) Name() string { return "dedup" }

// Description implements Workload.
func (Dedup) Description() string {
	return "dedup pipeline: serial critical fragmenter → parallel refine/compress → serial critical writer with IO halts"
}

var (
	ddFragment = &tdg.TaskType{Name: "fragment", Criticality: 1}
	ddRefine   = &tdg.TaskType{Name: "refine", Criticality: 0}
	ddCompress = &tdg.TaskType{Name: "compress", Criticality: 0}
	ddWrite    = &tdg.TaskType{Name: "write", Criticality: 1}
)

// Build implements Workload.
func (Dedup) Build(seed uint64, scale float64) *program.Program {
	b := newBuilder("dedup", seed)
	const (
		chunks      = 100
		perChunk    = 2 // compress tasks per chunk
		fragmentDur = 450 * sim.Microsecond
		refineDur   = 1200 * sim.Microsecond
		compressDur = 1600 * sim.Microsecond
		writeDur    = 800 * sim.Microsecond
		writeIO     = 250 * sim.Microsecond
		memFraction = 0.30
	)
	n := scaled(chunks, scale)
	b.p.Grow(n*(3+perChunk), 0)

	fragChain := b.token()
	writeChain := b.token()
	for c := 0; c < n; c++ {
		// Serial fragmenter: inout on the fragment chain token.
		chunkTok := b.token()
		b.task(ddFragment, b.jitterDur(fragmentDur, 0.15), memFraction,
			[]tdg.Token{fragChain}, []tdg.Token{fragChain, chunkTok}, 0)
		// Refine the chunk.
		refTok := b.token()
		b.task(ddRefine, b.lognormDur(refineDur, 0.30), memFraction,
			[]tdg.Token{chunkTok}, []tdg.Token{refTok}, 0)
		// Parallel compression of sub-blocks.
		comp := b.tokens(perChunk)
		for i := 0; i < perChunk; i++ {
			b.task(ddCompress, b.lognormDur(compressDur, 0.40), 0.25,
				[]tdg.Token{refTok}, []tdg.Token{comp[i]}, 0)
		}
		// Serial in-order writer with blocking IO. Compute-dominated
		// (hash verification + reorder buffer), so acceleration bites.
		ins := append([]tdg.Token{writeChain}, comp...)
		b.task(ddWrite, b.jitterDur(writeDur, 0.15), 0.20,
			ins, []tdg.Token{writeChain}, b.jitterDur(writeIO, 0.30))
	}
	return b.p
}
