package exp

// Open-system run mode: RunSpec.Arrivals selects an arrival process
// (internal/opensys) that instantiates the spec's workload as per-job
// DAG templates and injects them into one shared machine over simulated
// time. The harvested Measurement carries the response-time Report.

import (
	"fmt"

	"cata/internal/opensys"
	"cata/internal/program"
	"cata/internal/rts"
	"cata/internal/sim"
	"cata/internal/workloads"
)

// ValidateArrivals checks an arrival-process spec string, for services
// that want to reject bad specs at admission time instead of at run
// time.
func ValidateArrivals(spec string) error {
	_, err := opensys.Parse(spec)
	return err
}

// runOpen executes one open-system traffic run. spec has defaults
// applied.
func runOpen(spec RunSpec) (Measurement, error) {
	holder, err := openHolder(spec)
	if err != nil {
		return Measurement{}, err
	}
	return runWith(spec, holder)
}

// openHolder derives the arrival schedule and wires the runtime's
// open-system configuration: the collector callbacks and the injection
// of the schedule.
func openHolder(spec RunSpec) (programHolder, error) {
	proc, err := opensys.Parse(spec.Arrivals)
	if err != nil {
		return programHolder{}, fmt.Errorf("%v: %w", spec, err)
	}
	schedule := proc.Schedule(spec.Seed)

	// Each job's DAG is built when the job is admitted, so a shed
	// arrival builds nothing and a finished job's program is garbage. A
	// custom Program is shared across jobs (the runtime isolates their
	// dependences), while a registry workload, resolved once here, is
	// instantiated per job with an independent seed stream so the stream
	// carries DAG-level variation too.
	build := func(int) (*program.Program, error) { return spec.Program, nil }
	if spec.Program == nil {
		workload, err := workloads.Builder(spec.Workload)
		if err != nil {
			return programHolder{}, fmt.Errorf("%v: %w", spec, err)
		}
		build = func(job int) (*program.Program, error) {
			return workload(opensys.JobSeed(spec.Seed, job), spec.Scale)
		}
	}

	col := opensys.NewCollector(proc)
	var lastArrival sim.Time
	if len(schedule) > 0 {
		lastArrival = schedule[len(schedule)-1]
	}
	return programHolder{
		open: &rts.OpenConfig{
			MaxInSystem: proc.Cap,
			OnAdmit:     col.Admit,
			OnShed: func(jobID int, at sim.Time) {
				col.Shed(jobID, at)
				observeOpenShed()
			},
			OnDone: func(jobID int, arrived, done sim.Time) {
				col.Done(jobID, arrived, done)
				observeOpenResponse(done - arrived)
			},
		},
		collect:      col,
		extraSimTime: lastArrival,
		inject:       func(r *rts.Runtime) error { return r.Inject(schedule, build) },
	}, nil
}
