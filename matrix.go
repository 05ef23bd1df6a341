package cata

import (
	"context"
	"io"

	"cata/internal/exp"
	"cata/internal/workloads"
)

// MatrixConfig parameterizes a full evaluation matrix over benchmarks,
// policies and fast-core counts, normalized to the FIFO baseline. The
// JSON form (snake_case keys, policies as paper labels) is the request
// body of catad's POST /v1/sweeps; Batch is server-side policy and is
// excluded from it.
type MatrixConfig struct {
	// Policies to evaluate (FIFO is always run as the baseline).
	Policies []Policy `json:"policies,omitempty"`
	// FastCores values to sweep (default {8, 16, 24}).
	FastCores []int `json:"fast_cores,omitempty"`
	// Workloads to run (default: all six benchmarks).
	Workloads []string `json:"workloads,omitempty"`
	// Cores is the machine size (default 32).
	Cores int `json:"cores,omitempty"`
	// Seeds are run per cell and averaged (default {42, 1337, 2024}).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Scale shrinks task counts for quick runs (default 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Batch configures the sweep engine that executes the matrix:
	// parallelism, result caching and resume, and progress streaming.
	Batch BatchOptions `json:"-"`
}

// Configs expands the matrix into the flat run list the sweep engine
// executes — workloads × policies × fast-cores × seeds, in that
// nesting order — with the matrix defaults applied: the six paper
// benchmarks, the paper's {8,16,24} fast-core sweep, the standard seed
// triple, and — matching what RunMatrix executes for an empty Policies
// list — just the FIFO baseline, so a MatrixConfig means the same
// experiment through the library and through catad's POST /v1/sweeps
// (which uses exactly this expansion). Unlike RunMatrix it injects no
// extra FIFO baseline for non-FIFO policy lists, since raw per-run
// results need no normalization denominator.
func (cfg MatrixConfig) Configs() []RunConfig {
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = []Policy{PolicyFIFO}
	}
	fastCores := cfg.FastCores
	if len(fastCores) == 0 {
		fastCores = exp.DefaultFastCores()
	}
	wls := cfg.Workloads
	if len(wls) == 0 {
		wls = workloads.Names()
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = exp.DefaultSeeds()
	}
	var out []RunConfig
	for _, w := range wls {
		for _, p := range policies {
			for _, f := range fastCores {
				for _, seed := range seeds {
					out = append(out, RunConfig{
						Workload: w, Policy: p, FastCores: f,
						Cores: cfg.Cores, Seed: seed, Scale: cfg.Scale,
					})
				}
			}
		}
	}
	return out
}

// Matrix is an evaluated matrix: per-cell speedups and normalized EDP
// against FIFO — the data behind the paper's Figures 4 and 5.
type Matrix struct {
	inner *exp.Matrix
}

// RunMatrix executes the matrix in parallel across CPUs.
func RunMatrix(cfg MatrixConfig) (*Matrix, error) {
	return RunMatrixContext(context.Background(), cfg)
}

// RunMatrixContext executes the matrix through the sweep engine with
// cancellation and the batch options in cfg.Batch. A normalized matrix
// needs every cell, so cancellation or a failing cell aborts assembly;
// with a cache configured, completed cells persist and a resumed call
// finishes the remainder without re-running them. When every cell
// succeeded and only writing to the cache failed, the completed matrix
// is returned together with the error — don't throw the results away
// just because the cache is stale.
func RunMatrixContext(ctx context.Context, cfg MatrixConfig) (*Matrix, error) {
	inner, err := exp.RunMatrixSweep(ctx, exp.MatrixSpec{
		Policies:  cfg.Policies,
		FastCores: cfg.FastCores,
		Workloads: cfg.Workloads,
		Cores:     cfg.Cores,
		Seeds:     cfg.Seeds,
		Scale:     cfg.Scale,
	}, cfg.Batch.internal())
	if inner == nil {
		return nil, err
	}
	return &Matrix{inner}, err
}

// Speedup returns T_FIFO / T_policy for one cell (seed-averaged).
func (m *Matrix) Speedup(workload string, p Policy, fastCores int) float64 {
	return m.inner.Speedup(workload, p, fastCores)
}

// NormEDP returns EDP_policy / EDP_FIFO for one cell; below 1 is better.
func (m *Matrix) NormEDP(workload string, p Policy, fastCores int) float64 {
	return m.inner.NormEDP(workload, p, fastCores)
}

// AvgSpeedup returns the geometric-mean speedup across all workloads.
func (m *Matrix) AvgSpeedup(p Policy, fastCores int) float64 {
	return m.inner.AvgSpeedup(p, fastCores)
}

// AvgNormEDP returns the geometric-mean normalized EDP across workloads.
func (m *Matrix) AvgNormEDP(p Policy, fastCores int) float64 {
	return m.inner.AvgNormEDP(p, fastCores)
}

// SpeedupTable renders the speedup table in the layout of the paper's
// figures (rows: benchmarks + average; columns: policy × fast cores).
func (m *Matrix) SpeedupTable() string { return m.inner.Table("speedup") }

// WriteCSV emits the matrix as long-form CSV: one row per cell with
// normalized metrics and the raw first-seed measurement.
func (m *Matrix) WriteCSV(w io.Writer) error { return m.inner.WriteCSV(w) }

// EDPTable renders the normalized-EDP table.
func (m *Matrix) EDPTable() string { return m.inner.Table("edp") }

// Claim is one of the paper's quantitative statements checked against
// a matrix: its ID, the statement, the paper's number(s), what this
// run measured, and whether the claim holds.
type Claim = exp.Claim

// Claims evaluates the paper's headline §V claims against the matrix.
// The matrix must include all six policies.
func (m *Matrix) Claims() []Claim { return exp.Claims(m.inner) }

// ClaimsTable renders claim-check results.
func ClaimsTable(cs []Claim) string { return exp.ClaimsTable(cs) }

// VCAnalysisTable runs software CATA on every benchmark and renders the
// §V-C reconfiguration-cost analysis (latencies, worst-case lock waits,
// overhead percentage).
func VCAnalysisTable(fastCores int, seed uint64, scale float64) (string, error) {
	rows, err := exp.VCAnalysis(fastCores, seed, scale)
	if err != nil {
		return "", err
	}
	return exp.VCTable(rows), nil
}

// RSUCostTable renders the §III-B.4 RSU storage/area/power model.
func RSUCostTable() string { return exp.RSUCostTable() }

// TableI renders the simulated processor configuration (paper Table I).
func TableI() string { return exp.TableI() }
