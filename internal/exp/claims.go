package exp

import (
	"fmt"
	"math"
	"strings"
)

// Claim is one quantitative statement from the paper checked against a
// measured matrix. Checks are qualitative-shape assertions (who wins,
// roughly by how much, where), not absolute-number matches: the substrate
// is a behavioral simulator, not the authors' gem5 testbed.
type Claim struct {
	ID        string
	Statement string // the paper's claim
	Paper     string // the paper's number(s)
	Measured  string // what this run produced
	Holds     bool
}

// Claims evaluates the headline claims of §V against a matrix that must
// contain all six policies at fast-core counts {8, 16, 24}.
func Claims(m *Matrix) []Claim {
	var cs []Claim
	add := func(id, statement, paper, measured string, holds bool) {
		cs = append(cs, Claim{id, statement, paper, measured, holds})
	}
	span := func(p Policy, f func(Policy, int) float64) (lo, hi float64) {
		lo, hi = f(p, m.FastCores[0]), f(p, m.FastCores[0])
		for _, fc := range m.FastCores {
			v := f(p, fc)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi
	}

	// V-A: CATS improves over FIFO; SA beats BL.
	saLo, saHi := span(CATSSA, m.AvgSpeedup)
	blLo, blHi := span(CATSBL, m.AvgSpeedup)
	add("cats-gains",
		"CATS improves over FIFO on average (up to 5.6% BL, 7.2% SA at 8 fast)",
		"CATS+BL ≤ +5.6%, CATS+SA ≤ +7.2%",
		fmt.Sprintf("CATS+BL avg %.3f–%.3f, CATS+SA avg %.3f–%.3f", blLo, blHi, saLo, saHi),
		saHi > 1.0 && blHi > 1.0)
	saBetter := 0
	for _, fc := range m.FastCores {
		if m.AvgSpeedup(CATSSA, fc) >= m.AvgSpeedup(CATSBL, fc) {
			saBetter++
		}
	}
	add("sa-beats-bl",
		"static annotations perform slightly better than bottom-level",
		"SA > BL on average",
		fmt.Sprintf("SA >= BL at %d of %d fast-core counts", saBetter, len(m.FastCores)),
		saBetter >= len(m.FastCores)-1)

	// V-A: pipelines benefit from CATS, fork-join/stencil do not.
	pipeGain, fjGain := avgOver(m, CATSSA, []string{"bodytrack", "dedup", "ferret"}),
		avgOver(m, CATSSA, []string{"blackscholes", "swaptions", "fluidanimate"})
	add("cats-pipelines",
		"applications with complex TDGs (pipelines) benefit from CATS; fork-join/stencil do not",
		"dedup up to +20.2%; blackscholes/swaptions/fluidanimate ~0%",
		fmt.Sprintf("pipeline avg speedup %.3f vs fork-join/stencil %.3f", pipeGain, fjGain),
		pipeGain > 1.05 && pipeGain > fjGain && fjGain < 1.06)

	// V-B: CATA beats FIFO and CATS.
	cataLo, cataHi := span(CATA, m.AvgSpeedup)
	add("cata-gains",
		"CATA achieves average speedups of 15.9% to 18.4% over FIFO",
		"+15.9% to +18.4%",
		fmt.Sprintf("CATA avg %.3f–%.3f", cataLo, cataHi),
		cataHi >= 1.10)
	cataBeatsCats := 0
	for _, fc := range m.FastCores {
		if m.AvgSpeedup(CATA, fc) > m.AvgSpeedup(CATSSA, fc) {
			cataBeatsCats++
		}
	}
	add("cata-beats-cats",
		"CATA is 8.2% to 12.7% better than CATS+SA",
		"CATA > CATS+SA at every fast-core count",
		fmt.Sprintf("CATA > CATS+SA at %d of %d fast-core counts", cataBeatsCats, len(m.FastCores)),
		cataBeatsCats == len(m.FastCores))
	cataEDPLo, cataEDPHi := span(CATA, m.AvgNormEDP)
	add("cata-edp",
		"CATA average EDP improvements of 25.4% to 30.1%",
		"normalized EDP 0.699–0.746",
		fmt.Sprintf("CATA norm. EDP %.3f–%.3f", cataEDPLo, cataEDPHi),
		cataEDPHi < 1.0 && cataEDPLo < 0.92)

	// V-C: the RSU helps, most where lock contention lives.
	rsuBeats := 0
	for _, fc := range m.FastCores {
		if m.AvgSpeedup(CATARSU, fc) >= m.AvgSpeedup(CATA, fc) {
			rsuBeats++
		}
	}
	rsuLo, rsuHi := span(CATARSU, m.AvgSpeedup)
	add("rsu-beats-cata",
		"CATA+RSU further improves CATA (average 20.4% over FIFO, 3.9% over CATA)",
		"RSU ≥ CATA; RSU up to +20.4%",
		fmt.Sprintf("RSU avg %.3f–%.3f, ≥ CATA at %d of %d counts", rsuLo, rsuHi, rsuBeats, len(m.FastCores)),
		rsuBeats == len(m.FastCores) && rsuHi >= 1.12)
	rsuEDPLo, rsuEDPHi := span(CATARSU, m.AvgNormEDP)
	add("rsu-edp",
		"CATA+RSU average EDP improvements of 29.7% to 34.0%",
		"normalized EDP 0.660–0.703",
		fmt.Sprintf("RSU norm. EDP %.3f–%.3f", rsuEDPLo, rsuEDPHi),
		rsuEDPHi < 1.0 && rsuEDPLo < cataEDPLo)

	// V-D: TurboMode lands below CATA+RSU; competitive on fork-join.
	tmBelow := 0
	for _, fc := range m.FastCores {
		if m.AvgSpeedup(CATARSU, fc) >= m.AvgSpeedup(TURBO, fc) {
			tmBelow++
		}
	}
	tmLo, tmHi := span(TURBO, m.AvgSpeedup)
	add("turbo-below-rsu",
		"CATA+RSU outperforms TurboMode (by 4.0% to 5.3%)",
		"RSU ≥ TurboMode at every count",
		fmt.Sprintf("TurboMode avg %.3f–%.3f, RSU ≥ TM at %d of %d counts", tmLo, tmHi, tmBelow, len(m.FastCores)),
		tmBelow == len(m.FastCores))
	tmPipe := avgOver(m, TURBO, []string{"bodytrack", "dedup", "ferret"})
	rsuPipe := avgOver(m, CATARSU, []string{"bodytrack", "dedup", "ferret"})
	add("turbo-pipelines",
		"on pipeline applications TurboMode performs worse than CATA+RSU",
		"degradations up to 18.7% (bodytrack, 24 fast)",
		fmt.Sprintf("pipeline avg: TurboMode %.3f vs RSU %.3f", tmPipe, rsuPipe),
		rsuPipe > tmPipe)
	return cs
}

// avgOver geometric-means a policy's speedups over a workload subset and
// all fast-core counts.
func avgOver(m *Matrix, p Policy, ws []string) float64 {
	var prod float64 = 1
	n := 0
	for _, w := range ws {
		for _, fc := range m.FastCores {
			if v := m.Speedup(w, p, fc); v > 0 {
				prod *= v
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	// n-th root via successive halving is overkill; use math.Pow.
	return pow(prod, 1/float64(n))
}

// ClaimsTable renders claim check results.
func ClaimsTable(cs []Claim) string {
	var b strings.Builder
	for _, c := range cs {
		status := "HOLDS"
		if !c.Holds {
			status = "DIFFERS"
		}
		fmt.Fprintf(&b, "[%7s] %-18s %s\n          paper: %s\n          here:  %s\n",
			status, c.ID, c.Statement, c.Paper, c.Measured)
	}
	return b.String()
}

// pow is math.Pow, aliased to keep the import local to this helper.
func pow(x, y float64) float64 { return math.Pow(x, y) }
