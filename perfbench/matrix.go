package main

// paper-matrix: the Figure 4/5 evaluation as catafig and catasweep run
// it — a closed batch of many short simulations through the batch
// engine, no cache, one worker per CPU. Per-run setup (workload build,
// machine and runtime construction) weighs as much as the simulation
// itself here, as does the software reconfiguration path of CATA.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cata/internal/batch"
	"cata/internal/exp"
	"cata/internal/workloads"
)

// matrixSpec is the evaluation matrix: 6 workloads × 6 policies × the
// paper's three budgets × 3 seeds derived from the benchmark seed.
func matrixSpec(c config) exp.MatrixSpec {
	nseeds, scale := 3, 1.0
	if c.tiny {
		nseeds, scale = 1, 0.05
	}
	seeds := make([]uint64, nseeds)
	for i := range seeds {
		seeds[i] = derive(c.seed, "matrix", i)
	}
	return exp.MatrixSpec{
		Policies:  paperPolicies,
		FastCores: exp.DefaultFastCores(),
		Workloads: workloads.Names(),
		Cores:     32,
		Seeds:     seeds,
		Scale:     scale,
	}
}

// taskCounts builds every (workload, seed) program of the matrix and
// returns its task count, the expected TasksRun of each of its cells.
func taskCounts(spec exp.MatrixSpec) (map[progSpec]int64, error) {
	n := map[progSpec]int64{}
	for _, w := range spec.Workloads {
		for _, s := range spec.Seeds {
			p, err := workloads.Build(w, s, spec.Scale)
			if err != nil {
				return nil, err
			}
			n[progSpec{w, s, spec.Scale}] = int64(p.Tasks())
		}
	}
	return n, nil
}

func runMatrix(c config, t *tally, tr *tracer) (outcome, error) {
	spec := matrixSpec(c)
	par := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	cells := len(spec.Workloads) * len(spec.Policies) * len(spec.FastCores) * len(spec.Seeds)

	// Setup, several times: derive the expected task counts and warm up
	// on a one-seed matrix.
	var setups []float64
	var tasks map[progSpec]int64
	for range setupRounds {
		t0 := time.Now()
		var err error
		if tasks, err = taskCounts(spec); err != nil {
			return outcome{}, err
		}
		warm := spec
		warm.Seeds = spec.Seeds[:1]
		if _, err := exp.RunMatrixSweep(ctx, warm, exp.SweepOptions{Parallelism: par}); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Each sweep is checked as soon as it is timed: every cell ran its
	// program's task count, and every sweep repeats the first bit for
	// bit. Only the first sweep is kept.
	var cellMS []float64
	var m, m0 *exp.Matrix
	var total int64
	ref := map[string]string{}
	check := func() {
		if c.corrupt && m0 == nil {
			m.Cells(spec.Workloads[0], exp.CATA, 16)[0].TasksRun++
		}
		var tasksRun int64
		for _, w := range spec.Workloads {
			for _, p := range spec.Policies {
				for _, f := range spec.FastCores {
					cs := m.Cells(w, p, f)
					t.check(len(cs) == len(spec.Seeds), "%s/%v/%d: %d seeds of %d", w, p, f, len(cs), len(spec.Seeds))
					for k, cell := range cs {
						want := tasks[progSpec{w, spec.Seeds[k], spec.Scale}]
						t.check(cell.TasksRun == want, "%v ran %d tasks, program has %d", cell.Spec, cell.TasksRun, want)
						tasksRun += cell.TasksRun
						key := fmt.Sprintf("%s/%v/%d/%d", w, p, f, k)
						if got := mustJSON(cell); m0 == nil {
							ref[key] = got
						} else {
							t.check(got == ref[key], "%s differs from the first sweep", key)
						}
					}
				}
			}
		}
		if m0 == nil {
			m0, total = m, tasksRun
		}
	}
	lp, err := timedLoop(c.budget, 3, func() error {
		end := tr.start("exp.matrix_sweep", "", 0, 0)
		var err error
		m, err = exp.RunMatrixSweep(ctx, spec, exp.SweepOptions{
			Parallelism: par,
			Observe: func(e batch.Event) {
				if e.Index < 0 {
					return
				}
				cellMS = append(cellMS, ms(e.Elapsed))
				now := time.Now()
				tr.add("batch.cell", "", 0, 0, now.Add(-e.Elapsed), now)
			},
		})
		end()
		t.op(err)
		if err == nil {
			t.ops(int64(cells - 1))
		}
		return err
	}, check)
	if err != nil {
		return outcome{}, err
	}

	// Sequential re-runs of a sample of cells must reproduce them.
	samples := 6
	if c.tiny {
		samples = 2
	}
	for i := range samples {
		w := spec.Workloads[derive(c.seed, "sample.w", i)%uint64(len(spec.Workloads))]
		p := spec.Policies[derive(c.seed, "sample.p", i)%uint64(len(spec.Policies))]
		f := spec.FastCores[derive(c.seed, "sample.f", i)%uint64(len(spec.FastCores))]
		k := int(derive(c.seed, "sample.s", i) % uint64(len(spec.Seeds)))
		cell := m0.Cells(w, p, f)[k]
		again, err := exp.Run(exp.RunSpec{Workload: w, Policy: p, FastCores: f, Cores: spec.Cores,
			Seed: spec.Seeds[k], Scale: spec.Scale})
		t.op(err)
		t.check(err == nil && mustJSON(again) == mustJSON(cell), "re-run of %v differs from its matrix cell", cell.Spec)
	}

	var tput, cellRate, perTask []float64
	for i, w := range lp.walls {
		tput = append(tput, float64(total)/w.Seconds())
		cellRate = append(cellRate, float64(cells)/w.Seconds())
		perTask = append(perTask, float64(lp.allocs[i])/float64(total))
	}
	var resp []float64
	for _, w := range spec.Workloads {
		for _, cell := range m0.Cells(w, exp.CATARSU, 16) {
			resp = append(resp, cell.Makespan.Millis())
		}
	}
	e := figures{}
	e.set("setup_s", median(setups), "s")
	e.set("sim_tasks_per_s", median(tput), "1/s")
	e.set("allocs_per_task", median(perTask), "count")
	e.set("heap_peak_mb", median(lp.heaps), "MB")
	e.set("req_per_s", median(cellRate), "1/s")
	e.set("req_p50_ms", median(windowQuantiles(cellMS, 1000, 0.50)), "ms")
	e.set("req_p99_ms", median(windowQuantiles(cellMS, 1000, 0.99)), "ms")
	e.set("sim_speedup_geomean", m0.AvgSpeedup(exp.CATARSU, 16), "x")
	e.set("sim_norm_edp_geomean", m0.AvgNormEDP(exp.CATARSU, 16), "x")
	e.set("sim_resp_mean_ms", mean(resp), "ms")

	l := figures{}
	if tr != nil {
		var busy, wall float64
		for _, d := range tr.durs("batch.cell", "") {
			busy += d
		}
		for _, d := range tr.durs("exp.matrix_sweep", "") {
			wall += d
		}
		l.set("batch.sweep_efficiency", busy/(wall*float64(par)), "ratio")
	}
	return outcome{e2e: e, layer: l}, nil
}

// matrixLayers rebuilds each (workload, seed) program once and runs
// every cell of the matrix on it with exp.Run, one span per build and
// per simulation, so build and simulate time separate by policy.
func matrixLayers(c config, t *tally, tr *tracer) (figures, error) {
	spec := matrixSpec(c)
	var progs []progSpec
	for _, w := range spec.Workloads {
		for _, s := range spec.Seeds {
			progs = append(progs, progSpec{w, s, spec.Scale})
		}
	}
	runs, err := buildAndSimulate(t, tr, progs, spec.Policies, spec.FastCores, spec.Cores)
	if err != nil {
		return nil, err
	}
	f := buildFigures(tr)
	f.merge(simFigures(runs, int64(len(runs))))
	return f, nil
}
