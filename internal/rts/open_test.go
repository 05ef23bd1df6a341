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

func shared(p *program.Program) func(int) (*program.Program, error) {
	return func(int) (*program.Program, error) { return p, nil }
}

// arrivals returns n arrival times spaced gap apart from t=0.
func arrivals(n int, gap sim.Time) []sim.Time {
	s := make([]sim.Time, n)
	for i := range s {
		s[i] = sim.Time(i) * gap
	}
	return s
}

// TestOpenAdmissionFailureNamesJob: a job whose build or validation
// fails at admission stops the run, and Run reports which job it was.
func TestOpenAdmissionFailureNamesJob(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		build func(int) (*program.Program, error)
		want  string
	}{
		{"build error", func(int) (*program.Program, error) { return nil, boom }, "job 3: boom"},
		{"nil program", func(int) (*program.Program, error) { return nil, nil }, "job 3: build returned no program"},
		{"invalid program", shared(&program.Program{Name: "empty"}), "job 3: program empty: no tasks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			admitted := 0
			r := openRuntime(t, OpenConfig{OnAdmit: func(int, sim.Time) { admitted++ }})
			good := shared(forkJoin(2, 4, 50_000))
			build := func(i int) (*program.Program, error) {
				if i == 3 {
					return tc.build(i)
				}
				return good(i)
			}
			if err := r.Inject(arrivals(6, sim.Microsecond), build); err != nil {
				t.Fatal(err)
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
	build := func(int) (*program.Program, error) {
		builds++
		return prog, nil
	}
	if err := r.Inject(make([]sim.Time, 5), build); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if shed != 4 || builds != 1 || res.TasksRun != 4 {
		t.Fatalf("shed %d, built %d, ran %d tasks; want 4 shed, 1 build, 4 tasks", shed, builds, res.TasksRun)
	}
	if r.open.inSystem != 0 || r.open.pending() != 0 {
		t.Fatalf("run ended with %d jobs in system and %d arrivals pending", r.open.inSystem, r.open.pending())
	}
}

// TestOpenArrivalsQueueOneAtATime: however many arrivals are injected,
// only the next one waits in the engine, so the event queue at the
// first admission is the same size for 10 arrivals as for 1,000.
func TestOpenArrivalsQueueOneAtATime(t *testing.T) {
	pendingAtFirstAdmit := func(n int) int {
		var r *Runtime
		pending := -1
		r = openRuntime(t, OpenConfig{OnAdmit: func(job int, _ sim.Time) {
			if job == 0 {
				pending = r.eng.Pending()
			}
		}})
		if err := r.Inject(arrivals(n, 20*sim.Microsecond), shared(forkJoin(1, 4, 10_000))); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return pending
	}
	few, many := pendingAtFirstAdmit(10), pendingAtFirstAdmit(1000)
	if few < 0 || few != many {
		t.Fatalf("%d events pending at the first admission of 10 arrivals, %d of 1,000; want equal", few, many)
	}
}

// TestOpenArrivalKeepsInjectOrderOnTies: an arrival is queued only
// when the one before it fires, yet it still fires before a same-time
// event scheduled after Inject. Here the MaxSimTime abort, scheduled by
// Run, lands exactly on the second arrival: the arrival must be admitted
// first, as it was when every arrival was queued up front.
func TestOpenArrivalKeepsInjectOrderOnTies(t *testing.T) {
	const gap = 100 * sim.Microsecond
	eng, m := newMachine(t, 4)
	cfg := fifoConfig(m, nil)
	admitted := 0
	cfg.Open = &OpenConfig{OnAdmit: func(int, sim.Time) { admitted++ }}
	cfg.Options.MaxSimTime = gap
	r, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Inject(arrivals(3, gap), shared(chainProg(4, 1_000_000))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "exceeded MaxSimTime") {
		t.Fatalf("Run error = %v, want the MaxSimTime abort", err)
	}
	if admitted != 2 {
		t.Fatalf("%d jobs admitted before the abort at the second arrival's time, want 2", admitted)
	}
}

// TestOpenJobsShareTemplateWithoutAliasing: jobs built from one shared
// template get private dependence tokens, so each job's chain runs
// serially but the jobs overlap each other.
func TestOpenJobsShareTemplateWithoutAliasing(t *testing.T) {
	var resp []sim.Time
	r := openRuntime(t, OpenConfig{
		OnDone: func(_ int, arrived, done sim.Time) {
			resp = append(resp, done-arrived)
		},
	})
	if err := r.Inject(make([]sim.Time, 3), shared(chainProg(4, 1_000_000))); err != nil {
		t.Fatal(err)
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
	build := shared(forkJoin(1, 1, 1000))
	if err := closed.Inject([]sim.Time{0}, build); err == nil {
		t.Fatal("Inject on a closed-system runtime succeeded")
	}
	if err := openRuntime(t, OpenConfig{}).Inject([]sim.Time{0}, nil); err == nil {
		t.Fatal("Inject with a nil build function succeeded")
	}
	for _, schedule := range [][]sim.Time{{0, 5, 4}, {-1, 3}} {
		if err := openRuntime(t, OpenConfig{}).Inject(schedule, build); err == nil {
			t.Fatalf("Inject accepted schedule %v", schedule)
		}
	}
	twice := openRuntime(t, OpenConfig{})
	if err := twice.Inject([]sim.Time{0}, build); err != nil {
		t.Fatal(err)
	}
	if err := twice.Inject([]sim.Time{1}, build); err == nil {
		t.Fatal("a second Inject succeeded")
	}
}
