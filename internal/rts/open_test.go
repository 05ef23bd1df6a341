package rts

import (
	"errors"
	"strings"
	"testing"

	"cata/internal/program"
	"cata/internal/sim"
)

// openRuntime builds an open-system FIFO runtime on a small machine.
func openRuntime(t *testing.T, open OpenConfig) *Runtime {
	t.Helper()
	eng, m := newMachine(t, 4)
	cfg := fifoConfig(m, nil)
	cfg.Open = &open
	r, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func shared(p *program.Program) func() (*program.Program, error) {
	return func() (*program.Program, error) { return p, nil }
}

// TestOpenAdmissionFailureNamesJob: a job whose build or validation
// fails at admission stops the run, and Run reports which job it was.
func TestOpenAdmissionFailureNamesJob(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		build func() (*program.Program, error)
		want  string
	}{
		{"build error", func() (*program.Program, error) { return nil, boom }, "job 3: boom"},
		{"nil program", func() (*program.Program, error) { return nil, nil }, "job 3: build returned no program"},
		{"invalid program", shared(&program.Program{Name: "empty"}), "job 3: program empty: no tasks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			admitted := 0
			r := openRuntime(t, OpenConfig{OnAdmit: func(int, sim.Time) { admitted++ }})
			good := shared(forkJoin(2, 4, 50_000))
			for i := 0; i < 6; i++ {
				build := good
				if i == 3 {
					build = tc.build
				}
				if err := r.Inject(sim.Time(i)*sim.Microsecond, i, build); err != nil {
					t.Fatal(err)
				}
			}
			_, err := r.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want it to contain %q", err, tc.want)
			}
			if admitted != 3 {
				t.Fatalf("%d jobs admitted before the failure, want 3", admitted)
			}
		})
	}
}

// TestOpenShedArrivalBuildsNothing: the in-system cap is checked before
// the job's program is built, so a shed arrival costs no build.
func TestOpenShedArrivalBuildsNothing(t *testing.T) {
	shed, builds := 0, 0
	r := openRuntime(t, OpenConfig{MaxInSystem: 1, OnShed: func(int, sim.Time) { shed++ }})
	prog := forkJoin(1, 4, 50_000)
	build := func() (*program.Program, error) {
		builds++
		return prog, nil
	}
	for i := 0; i < 5; i++ {
		if err := r.Inject(0, i, build); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if shed != 4 || builds != 1 || res.TasksRun != 4 {
		t.Fatalf("shed %d, built %d, ran %d tasks; want 4 shed, 1 build, 4 tasks", shed, builds, res.TasksRun)
	}
	if len(r.open.taskJob) != 0 {
		t.Fatalf("%d finished tasks still mapped to their job", len(r.open.taskJob))
	}
}

// TestOpenJobsShareTemplateWithoutAliasing: jobs built from one shared
// template get private dependence tokens, so each job's chain runs
// serially but the jobs overlap each other.
func TestOpenJobsShareTemplateWithoutAliasing(t *testing.T) {
	var resp []sim.Time
	r := openRuntime(t, OpenConfig{OnDone: func(_ int, arrived, done sim.Time) {
		resp = append(resp, done-arrived)
	}})
	build := shared(chainProg(4, 1_000_000))
	for i := 0; i < 3; i++ {
		if err := r.Inject(0, i, build); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 3 || res.TasksRun != 12 {
		t.Fatalf("%d jobs done, %d tasks run; want 3 and 12", len(resp), res.TasksRun)
	}
	// Aliased tokens would chain all twelve tasks: the last job would
	// take three times as long as the first.
	if resp[2] > resp[0]+resp[0]/2 {
		t.Fatalf("jobs serialized across each other: response times %v", resp)
	}
}

func TestInjectRejectsMisuse(t *testing.T) {
	eng, m := newMachine(t, 2)
	closed, err := New(eng, fifoConfig(m, forkJoin(1, 1, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Inject(0, 0, shared(forkJoin(1, 1, 1000))); err == nil {
		t.Fatal("Inject on a closed-system runtime succeeded")
	}
	if err := openRuntime(t, OpenConfig{}).Inject(0, 0, nil); err == nil {
		t.Fatal("Inject with a nil build function succeeded")
	}
}
