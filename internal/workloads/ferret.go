package workloads

import (
	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// Ferret models the PARSECSs ferret benchmark: content-based image
// similarity search structured as a six-stage pipeline (load, segment,
// extract, vector, rank, out). Queries flow through the stages through
// dependences; the rank stage dominates compute and the out stage is a
// serial in-order writer with blocking IO.
//
// Like dedup, ferret mixes compute-heavy stages with an IO-bound critical
// tail; annotations mark rank and out critical. Lock contention is low
// (tasks are coarse), so CATA+RSU gains little over CATA here (§V-C), and
// TurboMode stays competitive by reclaiming budget during IO halts (§V-D).
type Ferret struct{}

// Name implements Workload.
func (Ferret) Name() string { return "ferret" }

// Description implements Workload.
func (Ferret) Description() string {
	return "image-search pipeline: load → segment → extract → vector → rank (critical, heavy) → serial out with IO; coarse tasks, low lock contention"
}

var (
	frLoad    = &tdg.TaskType{Name: "load", Criticality: 1}
	frSegment = &tdg.TaskType{Name: "segment", Criticality: 0}
	frExtract = &tdg.TaskType{Name: "extract", Criticality: 0}
	frVector  = &tdg.TaskType{Name: "vector", Criticality: 0}
	frRank    = &tdg.TaskType{Name: "rank", Criticality: 1}
	frOut     = &tdg.TaskType{Name: "out", Criticality: 1}
)

// Build implements Workload.
func (Ferret) Build(seed uint64, scale float64) *program.Program {
	b := newBuilder("ferret", seed)
	const (
		queries     = 120
		loadDur     = 500 * sim.Microsecond
		segmentDur  = 1100 * sim.Microsecond
		extractDur  = 1600 * sim.Microsecond
		vectorDur   = 2000 * sim.Microsecond
		rankDur     = 3600 * sim.Microsecond
		outDur      = 400 * sim.Microsecond
		outIO       = 150 * sim.Microsecond
		memFraction = 0.30
	)
	n := scaled(queries, scale)
	b.p.Grow(6*n, 0)

	loadChain := b.token() // the loader reads the input stream serially
	outChain := b.token()  // results are written in order
	for q := 0; q < n; q++ {
		ld, sg, ex, vc, rk := b.token(), b.token(), b.token(), b.token(), b.token()
		b.task(frLoad, b.jitterDur(loadDur, 0.20), 0.45,
			[]tdg.Token{loadChain}, []tdg.Token{loadChain, ld}, 0)
		b.task(frSegment, b.lognormDur(segmentDur, 0.30), memFraction,
			[]tdg.Token{ld}, []tdg.Token{sg}, 0)
		b.task(frExtract, b.lognormDur(extractDur, 0.30), memFraction,
			[]tdg.Token{sg}, []tdg.Token{ex}, 0)
		b.task(frVector, b.lognormDur(vectorDur, 0.30), memFraction,
			[]tdg.Token{ex}, []tdg.Token{vc}, 0)
		b.task(frRank, b.lognormDur(rankDur, 0.40), 0.20,
			[]tdg.Token{vc}, []tdg.Token{rk}, 0)
		b.task(frOut, b.jitterDur(outDur, 0.15), 0.20,
			[]tdg.Token{outChain, rk}, []tdg.Token{outChain}, b.jitterDur(outIO, 0.25))
	}
	return b.p
}
