package main

import (
	"cata/internal/exp"
	"cata/internal/program"
	"cata/internal/workloads"
)

// paperPolicies are the six policies of the paper's Figures 4 and 5.
var paperPolicies = []exp.Policy{exp.FIFO, exp.CATSBL, exp.CATSSA, exp.CATA, exp.CATARSU, exp.TURBO}

// policyKey names a policy in per-layer metric names.
var policyKey = map[exp.Policy]string{
	exp.FIFO: "fifo", exp.CATSBL: "cats_bl", exp.CATSSA: "cats_sa",
	exp.CATA: "cata", exp.CATARSU: "cata_rsu", exp.TURBO: "turbo",
}

// progSpec is one program to build: a workload spec at a seed and scale.
type progSpec struct {
	workload string
	seed     uint64
	scale    float64
}

// simRun is one simulation with the engine's events and wall time it
// consumed, taken from the program's metrics registry around the call.
type simRun struct {
	m      exp.Measurement
	events float64
	wall   float64 // seconds inside the simulator
}

// buildAndSimulate builds each program once (a workloads.build span),
// then runs it under every policy and budget with exp.Run on the
// prebuilt Program (an exp.simulate span per run, attributed to the
// policy). It returns the runs in order.
func buildAndSimulate(t *tally, tr *tracer, progs []progSpec, pols []exp.Policy, budgets []int, cores int) ([]simRun, error) {
	var runs []simRun
	for _, ps := range progs {
		end := tr.start("workloads.build", ps.workload, 0, 0)
		prog, err := workloads.Build(ps.workload, ps.seed, ps.scale)
		parent := end()
		t.op(err)
		if err != nil {
			return nil, err
		}
		for _, p := range pols {
			for _, fast := range budgets {
				r, err := simulate(tr, parent, prog, exp.RunSpec{
					Workload: ps.workload, Policy: p, FastCores: fast, Cores: cores,
					Seed: ps.seed, Scale: ps.scale,
				})
				t.op(err)
				if err != nil {
					return nil, err
				}
				t.check(r.m.TasksRun == int64(prog.Tasks()), "%v ran %d tasks, program has %d",
					r.m.Spec, r.m.TasksRun, prog.Tasks())
				runs = append(runs, r)
			}
		}
	}
	return runs, nil
}

// simulate runs spec on a prebuilt program inside an exp.simulate span.
func simulate(tr *tracer, parent int64, prog *program.Program, spec exp.RunSpec) (simRun, error) {
	spec.Program = prog
	before := scrape()
	end := tr.start("exp.simulate", policyKey[spec.Policy], parent, 0)
	m, err := exp.Run(spec)
	end()
	after := scrape()
	return simRun{
		m:      m,
		events: delta(before, after, "cata_sim_events_total"),
		wall:   delta(before, after, "cata_sim_wall_seconds_total"),
	}, err
}

// simFigures derives the simulation-layer figures from a set of runs;
// jobs is the number of jobs they simulated (one per closed run).
func simFigures(runs []simRun, jobs int64) figures {
	var events, wall float64
	var tasks, crit, inv, reconf, trans, granted, denied int64
	var lockMaxUS float64
	var overhead []float64
	for _, r := range runs {
		m := r.m
		events += r.events
		wall += r.wall
		tasks += m.TasksRun
		crit += m.CriticalTasks
		inv += m.Inversions
		reconf += m.ReconfigOps
		trans += m.Transitions
		granted += m.AccelsGranted
		denied += m.AccelsDenied
		lockMaxUS = max(lockMaxUS, m.DriverLockWaitMax.Micros())
		if m.ReconfigOverheadPct > 0 {
			overhead = append(overhead, m.ReconfigOverheadPct)
		}
	}
	f := figures{}
	f.set("sim.events_per_task", events/float64(max(tasks, 1)), "count")
	f.set("sim.ns_per_event", 1e9*wall/max(events, 1), "ns")
	f.set("rts.simulate_us_per_job", 1e6*wall/float64(max(jobs, 1)), "us")
	f.set("rsm.reconfig_ops_per_task", float64(reconf)/float64(max(tasks, 1)), "count")
	f.set("rsm.accel_denied_frac", float64(denied)/float64(max(granted+denied, 1)), "ratio")
	f.set("rsm.reconfig_overhead_pct", mean(overhead), "%")
	f.set("cpufreq.driver_lock_wait_max_us", lockMaxUS, "us")
	f.set("machine.dvfs_transitions_per_task", float64(trans)/float64(max(tasks, 1)), "count")
	f.set("sched.inversions_per_critical_task", float64(inv)/float64(max(crit, 1)), "count")
	return f
}

// buildFigures reports the mean build time and the mean simulate time
// per policy from the spans buildAndSimulate recorded.
func buildFigures(tr *tracer) figures {
	f := figures{}
	f.set("workloads.build_ms", mean(tr.durs("workloads.build", "")), "ms")
	for _, p := range paperPolicies {
		f.set("exp.simulate_ms."+policyKey[p], mean(tr.durs("exp.simulate", policyKey[p])), "ms")
	}
	return f
}
