package exp

import (
	"context"
	"fmt"
	"strings"

	"cata/internal/stats"
	"cata/internal/workloads"
)

// Matrix holds the full evaluation of a set of policies over the six
// benchmarks and the fast-core sweep, normalized to the FIFO baseline —
// the data behind Figure 4 and Figure 5. Every cell is run once per seed;
// ratios are computed seed-paired (same workload instance for numerator
// and denominator) and averaged geometrically, mirroring how the paper
// reports a single deterministic gem5 run but de-noising our synthetic
// straggler draws.
type Matrix struct {
	Workloads []string
	Policies  []Policy
	FastCores []int
	Seeds     []uint64

	// cells[key] holds one measurement per seed, in Seeds order.
	cells map[cellKey][]Measurement
}

type cellKey struct {
	w    string
	p    Policy
	fast int
}

// MatrixSpec parameterizes a matrix run.
type MatrixSpec struct {
	Policies  []Policy
	FastCores []int // default {8, 16, 24}
	Workloads []string
	Cores     int
	Seeds     []uint64 // default {42, 1337, 2024}
	Scale     float64
}

func (s MatrixSpec) withDefaults() MatrixSpec {
	if len(s.FastCores) == 0 {
		s.FastCores = DefaultFastCores()
	}
	if len(s.Workloads) == 0 {
		s.Workloads = defaultWorkloads()
	}
	if len(s.Seeds) == 0 {
		s.Seeds = DefaultSeeds()
	}
	return s
}

// DefaultFastCores returns the paper's fast-core sweep (8, 16, 24 of
// 32) — the default of every matrix evaluation, in-process and in
// catad. The returned slice is a copy.
func DefaultFastCores() []int { return []int{8, 16, 24} }

// DefaultSeeds returns the seeds a matrix cell is averaged over by
// default, shared by every matrix evaluation. The returned slice is a
// copy.
func DefaultSeeds() []uint64 { return []uint64{42, 1337, 2024} }

// defaultWorkloads are the paper's six benchmarks, taken from the
// workload registry rather than a third hand-maintained list.
func defaultWorkloads() []string { return workloads.Names() }

// RunMatrix executes the matrix (FIFO baselines are added automatically)
// in parallel and assembles normalized results.
func RunMatrix(spec MatrixSpec) (*Matrix, error) {
	return RunMatrixSweep(context.Background(), spec, SweepOptions{})
}

// RunMatrixSweep executes the matrix through the batch engine with
// cancellation, caching, and progress. A normalized matrix needs every
// cell, so any per-spec failure (or cancellation) aborts assembly — but
// with a cache configured, completed cells persist and a resumed call
// picks up where the interrupted one stopped. When every cell succeeded
// and only writing to the cache failed, the completed matrix is
// returned together with the cache error; callers decide whether a
// stale cache matters to them.
func RunMatrixSweep(ctx context.Context, spec MatrixSpec, opts SweepOptions) (*Matrix, error) {
	spec = spec.withDefaults()
	policies := spec.Policies
	hasFIFO := false
	for _, p := range policies {
		if p == FIFO {
			hasFIFO = true
		}
	}
	runPolicies := policies
	if !hasFIFO {
		runPolicies = append([]Policy{FIFO}, policies...)
	}

	// Specs are ordered workload, seed, policy, budget: each program's
	// cells are dispatched back to back, so Sweep, which builds every
	// (workload, seed) program once and drops it after its last cell,
	// keeps only about Parallelism programs alive at a time.
	var specs []RunSpec
	for _, w := range spec.Workloads {
		for _, seed := range spec.Seeds {
			for _, p := range runPolicies {
				for _, f := range spec.FastCores {
					specs = append(specs, RunSpec{
						Workload: w, Policy: p, FastCores: f,
						Cores: spec.Cores, Seed: seed, Scale: spec.Scale,
					})
				}
			}
		}
	}
	rs, sweepErr := Sweep(ctx, specs, opts)
	if sweepErr != nil && len(rs) != len(specs) {
		// Nothing ran (e.g. cache open failure). Cancellation and
		// per-cell failures surface through measurements below; a
		// pure cache write error leaves full, healthy results and
		// rides along with the finished matrix.
		return nil, sweepErr
	}
	ms, err := measurements(rs)
	if err != nil {
		return nil, fmt.Errorf("exp: matrix: %w", err)
	}

	m := &Matrix{
		Workloads: spec.Workloads,
		Policies:  spec.Policies,
		FastCores: spec.FastCores,
		Seeds:     spec.Seeds,
		cells:     map[cellKey][]Measurement{},
	}
	for _, meas := range ms {
		k := cellKey{meas.Spec.Workload, meas.Spec.Policy, meas.Spec.FastCores}
		m.cells[k] = append(m.cells[k], meas)
	}
	return m, sweepErr
}

// Cells returns the per-seed measurements for (workload, policy, fast).
func (m *Matrix) Cells(w string, p Policy, fast int) []Measurement {
	return m.cells[cellKey{w, p, fast}]
}

// Cell returns the first-seed measurement, the representative run used by
// the detail tables.
func (m *Matrix) Cell(w string, p Policy, fast int) (Measurement, bool) {
	cs := m.Cells(w, p, fast)
	if len(cs) == 0 {
		return Measurement{}, false
	}
	return cs[0], true
}

// ratios computes seed-paired base/cell (or cell/base) ratios.
func (m *Matrix) ratios(w string, p Policy, fast int, f func(base, cell Measurement) float64) []float64 {
	base := m.Cells(w, FIFO, fast)
	cell := m.Cells(w, p, fast)
	if len(base) != len(cell) || len(base) == 0 {
		return nil
	}
	vs := make([]float64, 0, len(base))
	for i := range base {
		if v := f(base[i], cell[i]); v > 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

// Speedup returns the seed-averaged T_FIFO / T_policy for a cell
// (Figure 4/5 upper plots).
func (m *Matrix) Speedup(w string, p Policy, fast int) float64 {
	vs := m.ratios(w, p, fast, func(base, cell Measurement) float64 {
		if cell.Makespan == 0 {
			return 0
		}
		return float64(base.Makespan) / float64(cell.Makespan)
	})
	if len(vs) == 0 {
		return 0
	}
	return stats.GeoMean(vs)
}

// NormEDP returns the seed-averaged EDP_policy / EDP_FIFO for a cell
// (lower plots; below 1.0 is better).
func (m *Matrix) NormEDP(w string, p Policy, fast int) float64 {
	vs := m.ratios(w, p, fast, func(base, cell Measurement) float64 {
		if base.EDP == 0 {
			return 0
		}
		return cell.EDP / base.EDP
	})
	if len(vs) == 0 {
		return 0
	}
	return stats.GeoMean(vs)
}

// AvgSpeedup returns the geometric-mean speedup across workloads.
func (m *Matrix) AvgSpeedup(p Policy, fast int) float64 {
	vs := make([]float64, 0, len(m.Workloads))
	for _, w := range m.Workloads {
		if v := m.Speedup(w, p, fast); v > 0 {
			vs = append(vs, v)
		}
	}
	return stats.GeoMean(vs)
}

// AvgNormEDP returns the geometric-mean normalized EDP across workloads.
func (m *Matrix) AvgNormEDP(p Policy, fast int) float64 {
	vs := make([]float64, 0, len(m.Workloads))
	for _, w := range m.Workloads {
		if v := m.NormEDP(w, p, fast); v > 0 {
			vs = append(vs, v)
		}
	}
	return stats.GeoMean(vs)
}

// Table renders an aligned text table of the given metric ("speedup" or
// "edp"), in the layout of the paper's figures: one row per benchmark plus
// the average, one column per (policy, fast-cores).
func (m *Matrix) Table(metric string) string {
	value := m.Speedup
	avg := m.AvgSpeedup
	switch metric {
	case "speedup":
	case "edp":
		value, avg = m.NormEDP, m.AvgNormEDP
	default:
		panic(fmt.Sprintf("exp: unknown metric %q", metric))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", metric)
	for _, p := range m.Policies {
		for _, f := range m.FastCores {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("%s/%d", shortName(p), f))
		}
	}
	b.WriteByte('\n')
	for _, w := range m.Workloads {
		fmt.Fprintf(&b, "%-14s", w)
		for _, p := range m.Policies {
			for _, f := range m.FastCores {
				fmt.Fprintf(&b, " %9.3f", value(w, p, f))
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s", "average")
	for _, p := range m.Policies {
		for _, f := range m.FastCores {
			fmt.Fprintf(&b, " %9.3f", avg(p, f))
		}
	}
	b.WriteByte('\n')
	return b.String()
}

func shortName(p Policy) string {
	switch p {
	case FIFO:
		return "FIFO"
	case CATSBL:
		return "C+BL"
	case CATSSA:
		return "C+SA"
	case CATA:
		return "CATA"
	case CATARSU:
		return "RSU"
	case TURBO:
		return "Turbo"
	default:
		// Registered policies outside the abbreviation table: the spec
		// name, clipped to keep the matrix columns aligned.
		name := string(p)
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		if name == "" {
			name = "?"
		}
		if len(name) > 5 {
			name = name[:5]
		}
		return name
	}
}
