package main

// open-soak: open-system traffic inside the simulation — one long
// exp.Run in which Poisson-arriving fork-join jobs share a 16-core
// machine under CATA at about two thirds of its capacity, nothing shed.
// Setup is negligible, so the run is all simulator work on one
// long-lived task graph, and per-job state that outlives its job shows
// as heap growth.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"cata/internal/exp"
	"cata/internal/opensys"
	"cata/internal/workloads"
)

const soakWorkload = "forkjoin:width=8,phases=2,dur=100"

func soakJobs(c config) int {
	if c.tiny {
		return 150
	}
	return 4000
}

// soakSeeds is how many arrival streams a run cycles through, so the
// simulated figures average over streams rather than hang on one.
const soakSeeds = 8

func soakSeed(c config, i int) uint64 { return derive(c.seed, "soak", i) }

func soakSpec(seed uint64, p exp.Policy, jobs int) exp.RunSpec {
	return exp.RunSpec{
		Workload:  soakWorkload,
		Policy:    p,
		Cores:     16,
		FastCores: 8,
		Seed:      seed,
		Arrivals:  fmt.Sprintf("poisson:lambda=6000,jobs=%d,deadline=1ms,cap=256", jobs),
	}
}

// checkSoak verifies one soak's accounting: every arrival completed or
// was shed, nothing was shed, and each completed job ran its whole DAG.
func checkSoak(t *tally, m exp.Measurement, jobs int, tasksPerJob int64) {
	o := m.Open
	if o == nil {
		t.check(false, "%v: no open-system report", m.Spec)
		return
	}
	t.check(o.JobsArrived == int64(jobs), "%v: %d jobs arrived, want %d", m.Spec, o.JobsArrived, jobs)
	t.check(o.JobsArrived == o.JobsCompleted+o.JobsShed, "%v: arrived %d != completed %d + shed %d",
		m.Spec, o.JobsArrived, o.JobsCompleted, o.JobsShed)
	t.check(o.JobsShed == 0, "%v: %d jobs shed", m.Spec, o.JobsShed)
	t.check(m.TasksRun == o.JobsCompleted*tasksPerJob, "%v: %d tasks for %d jobs of %d",
		m.Spec, m.TasksRun, o.JobsCompleted, tasksPerJob)
}

func runSoak(c config, t *tally, tr *tracer) (outcome, error) {
	jobs := soakJobs(c)
	specs := make([]exp.RunSpec, soakSeeds)
	for i := range specs {
		specs[i] = soakSpec(soakSeed(c, i), exp.CATA, jobs)
	}

	// Setup, several times: derive the arrival schedules and warm up on
	// a stream a tenth as long.
	var setups []float64
	for range setupRounds {
		t0 := time.Now()
		for _, spec := range specs {
			end := tr.start("opensys.schedule", "", 0, 0)
			proc, err := opensys.Parse(spec.Arrivals)
			if err != nil {
				return outcome{}, err
			}
			schedule := proc.Schedule(spec.Seed)
			end()
			t.check(len(schedule) == jobs, "schedule has %d arrivals, want %d", len(schedule), jobs)
		}
		if _, err := exp.Run(soakSpec(specs[0].Seed, exp.CATA, max(jobs/10, 10))); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	tmpl, err := workloads.Build(soakWorkload, opensys.JobSeed(specs[0].Seed, 0), 1)
	if err != nil {
		return outcome{}, err
	}
	tasksPerJob := int64(tmpl.Tasks())

	// Soaks cycle through the streams. Each must account for every job
	// and repeat the first soak of its stream bit for bit; only the
	// first of each stream is kept.
	var m exp.Measurement
	var n int // soaks run
	firsts := make([]exp.Measurement, soakSeeds)
	firstJSON := make([]string, soakSeeds)
	var tasks []int64
	var runs []simRun // traced only
	check := func() {
		if c.corrupt && n == 1 {
			m.Open.JobsCompleted--
		}
		checkSoak(t, m, jobs, tasksPerJob)
		tasks = append(tasks, m.TasksRun)
		i := (n - 1) % soakSeeds
		if firstJSON[i] == "" {
			firsts[i], firstJSON[i] = m, mustJSON(m)
		} else {
			t.check(mustJSON(m) == firstJSON[i], "soak of stream %d differs from its first", i)
		}
	}
	lp, err := timedLoop(c.budget, soakSeeds, func() error {
		var before counters
		if tr != nil {
			before = scrape()
		}
		end := tr.start("exp.run_open", "", 0, 0)
		var err error
		m, err = exp.Run(specs[n%soakSeeds])
		end()
		n++
		t.op(err)
		if tr != nil && err == nil {
			after := scrape()
			runs = append(runs, simRun{m: m,
				events: delta(before, after, "cata_sim_events_total"),
				wall:   delta(before, after, "cata_sim_wall_seconds_total")})
		}
		return err
	}, check)
	if err != nil {
		return outcome{}, err
	}

	// FIFO baselines on the same arrivals normalize the simulated
	// figures, as the paper normalizes to FIFO.
	var speedup, edp, resp []float64
	var arrived, completed, shed, missed int64
	for i, spec := range specs {
		base, err := exp.Run(soakSpec(spec.Seed, exp.FIFO, jobs))
		t.op(err)
		if err != nil {
			return outcome{}, err
		}
		checkSoak(t, base, jobs, tasksPerJob)
		o, b := firsts[i].Open, base.Open
		if o == nil || b == nil || o.MeanResponse <= 0 || b.MeanResponse <= 0 {
			t.check(false, "stream %d has no response times", i)
			continue
		}
		r, br := o.MeanResponse.Seconds(), b.MeanResponse.Seconds()
		speedup = append(speedup, br/r)
		edp = append(edp, (firsts[i].Joules*r)/(base.Joules*br))
		resp = append(resp, 1e3*r)
		arrived += o.JobsArrived
		completed += o.JobsCompleted
		shed += o.JobsShed
		missed += o.DeadlineMissed
	}

	var tput, rate, perTask, wallMS []float64
	for i, w := range lp.walls {
		tput = append(tput, float64(tasks[i])/w.Seconds())
		rate = append(rate, 1/w.Seconds())
		perTask = append(perTask, float64(lp.allocs[i])/float64(tasks[i]))
		wallMS = append(wallMS, ms(w))
	}
	e := figures{}
	e.set("setup_s", median(setups), "s")
	e.set("sim_tasks_per_s", median(tput), "1/s")
	e.set("allocs_per_task", median(perTask), "count")
	e.set("heap_peak_mb", median(lp.heaps), "MB")
	e.set("req_per_s", median(rate), "1/s")
	e.set("req_p50_ms", median(windowQuantiles(wallMS, 10, 0.50)), "ms")
	e.set("req_p99_ms", median(windowQuantiles(wallMS, 10, 0.99)), "ms")
	e.set("sim_speedup_geomean", geomean(speedup), "x")
	e.set("sim_norm_edp_geomean", geomean(edp), "x")
	e.set("sim_resp_mean_ms", mean(resp), "ms")

	l := figures{}
	if tr != nil {
		var jobsRun int64
		for _, r := range runs {
			jobsRun += r.m.Open.JobsCompleted
		}
		l = simFigures(runs, jobsRun)
		l.set("opensys.schedule_ms", mean(tr.durs("opensys.schedule", "")), "ms")
		l.set("opensys.shed_frac", float64(shed)/float64(max(arrived, 1)), "ratio")
		l.set("opensys.miss_rate", float64(missed)/float64(max(completed, 1)), "ratio")
	}
	return outcome{e2e: e, layer: l}, nil
}

// soakLayers times the job template's build and its closed run under
// each policy, and measures the heap each job leaves behind: the slope
// of the peak live heap between a quarter-length and a full-length
// stream, with the collector run often so the live figure is fresh.
func soakLayers(c config, t *tally, tr *tracer) (figures, error) {
	jobs := soakJobs(c)
	seed := soakSeed(c, 0)
	var progs []progSpec
	for i := range 4 {
		progs = append(progs, progSpec{soakWorkload, opensys.JobSeed(seed, i), 1})
	}
	if _, err := buildAndSimulate(t, tr, progs, paperPolicies, []int{8}, 16); err != nil {
		return nil, err
	}
	f := buildFigures(tr)

	short, long := max(jobs/4, 250), max(jobs, 1000)
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	var live [2]uint64
	for i, n := range []int{short, long} {
		runtime.GC()
		sampler := startHeapSampler(time.Millisecond)
		end := tr.start("exp.run_open", "retention", 0, 0)
		m, err := exp.Run(soakSpec(seed, exp.CATA, n))
		end()
		live[i] = sampler.Stop()
		t.op(err)
		if err != nil {
			return nil, err
		}
		t.check(m.Open != nil && m.Open.JobsShed == 0, "%v: jobs shed", m.Spec)
	}
	slope := (float64(live[1]) - float64(live[0])) / float64(long-short)
	f.set("tdg.retained_kb_per_job", slope/1024, "KB")
	return f, nil
}
