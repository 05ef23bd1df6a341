package exp

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cata/internal/sim"
)

// openSpec is the cheap open-system configuration the tests share.
func openSpec(arrivals string) RunSpec {
	return RunSpec{
		Workload:  "forkjoin:width=4,phases=2,dur=50",
		Policy:    CATA,
		FastCores: 8,
		Cores:     8,
		Seed:      42,
		Arrivals:  arrivals,
	}
}

// TestOpenRunGoldenDeterminism pins the satellite requirement end to
// end: the same (spec, seed) pair must reproduce the byte-identical
// percentile report, and a different seed must actually move the
// arrival process.
func TestOpenRunGoldenDeterminism(t *testing.T) {
	spec := openSpec("poisson:lambda=2000,jobs=20,deadline=5ms,cap=4,window=10ms")
	m1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Open == nil || m2.Open == nil {
		t.Fatal("open-system run returned no Open report")
	}
	j1, err := json.Marshal(m1.Open)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(m2.Open)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", j1, j2)
	}
	if m1.Makespan != m2.Makespan || m1.Joules != m2.Joules {
		t.Fatalf("same seed diverged on closed metrics: %v/%v vs %v/%v",
			m1.Makespan, m1.Joules, m2.Makespan, m2.Joules)
	}
	if m1.Open.JobsCompleted != 20 {
		t.Fatalf("JobsCompleted = %d, want all 20 (cap should not bind here)", m1.Open.JobsCompleted)
	}

	other := spec
	other.Seed = 7
	m3, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := json.Marshal(m3.Open)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) == string(j3) {
		t.Fatal("different seeds produced the identical report")
	}
}

// TestOpenRunOverload drives arrivals far faster than the machine can
// drain them under a tight in-system cap, and checks the shed accounting
// and percentile ordering the report promises.
func TestOpenRunOverload(t *testing.T) {
	spec := openSpec("poisson:lambda=200000,jobs=40,deadline=100us,cap=2")
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	o := m.Open
	if o == nil {
		t.Fatal("no Open report")
	}
	if o.JobsArrived != 40 {
		t.Fatalf("JobsArrived = %d, want 40", o.JobsArrived)
	}
	if o.JobsShed == 0 {
		t.Fatal("overload run shed no jobs; cap=2 at 200k jobs/s should bind")
	}
	if o.JobsShed+o.JobsCompleted != o.JobsArrived {
		t.Fatalf("shed %d + completed %d != arrived %d",
			o.JobsShed, o.JobsCompleted, o.JobsArrived)
	}
	if o.PeakInSystem > 2 {
		t.Fatalf("PeakInSystem = %d exceeds cap 2", o.PeakInSystem)
	}
	if !(o.P50 <= o.P99 && o.P99 <= o.P999) {
		t.Fatalf("percentiles not monotone: p50=%v p99=%v p999=%v", o.P50, o.P99, o.P999)
	}
	if o.P999 > o.MaxResponse*2 {
		// Quantiles are bucket midpoints, so p999 may exceed the exact max
		// by at most one bucket's width (a factor of 2).
		t.Fatalf("p999 %v implausibly above max %v", o.P999, o.MaxResponse)
	}
	if o.MissRate <= 0 {
		t.Fatal("100us deadline under overload should miss, MissRate = 0")
	}
}

// TestOpenRunBadSpecs ensures malformed arrival specs fail loudly with
// the arrivals cause in the message, and that ValidateArrivals agrees
// with Run.
func TestOpenRunBadSpecs(t *testing.T) {
	for _, bad := range []string{"poisson", "poisson:lambda=-1", "burst:rate=9"} {
		if err := ValidateArrivals(bad); err == nil {
			t.Errorf("ValidateArrivals(%q) passed, want error", bad)
		}
		_, err := Run(openSpec(bad))
		if err == nil {
			t.Errorf("Run with arrivals %q succeeded, want error", bad)
		} else if !strings.Contains(err.Error(), "arrivals") {
			t.Errorf("Run error for %q lost the arrivals cause: %v", bad, err)
		}
	}
}

// TestClosedRunIgnoresOpenPath guards the bit-identical promise from the
// other side: an empty Arrivals field must leave the closed-system spec
// string and JSON encoding unchanged, so sweep cache keys cannot shift.
func TestClosedRunIgnoresOpenPath(t *testing.T) {
	spec := openSpec("")
	if s := spec.String(); strings.Contains(s, "arrivals") || strings.Contains(s, "/poisson") {
		t.Fatalf("closed spec string mentions arrivals: %q", s)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "arrivals") {
		t.Fatalf("closed spec JSON carries an arrivals key: %s", b)
	}
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Open != nil {
		t.Fatal("closed run produced an Open report")
	}
}

// liveHeapAtLastDone runs a forkjoin open run of the given length and
// returns the live heap, after a full collection, at the moment its last
// job completes: everything a finished job leaves reachable is counted,
// everything it leaves for the collector is not.
func liveHeapAtLastDone(t *testing.T, jobs int) uint64 {
	t.Helper()
	spec := RunSpec{
		Workload:  "forkjoin:width=8,phases=2,dur=100",
		Policy:    CATA,
		Cores:     16,
		FastCores: 8,
		Seed:      42,
		Arrivals:  fmt.Sprintf("poisson:lambda=6000,jobs=%d", jobs),
	}.withDefaults()
	holder, err := openHolder(spec)
	if err != nil {
		t.Fatal(err)
	}
	var live uint64
	done, finished := holder.open.OnDone, 0
	holder.open.OnDone = func(jobID int, arrived, at sim.Time) {
		done(jobID, arrived, at)
		if finished++; finished == jobs {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			live = ms.HeapAlloc
		}
	}
	m, err := runWith(spec, holder)
	if err != nil {
		t.Fatal(err)
	}
	if m.Open.JobsCompleted != int64(jobs) || live == 0 {
		t.Fatalf("%d of %d jobs completed, live heap %d", m.Open.JobsCompleted, jobs, live)
	}
	return live
}

// TestOpenRunRetainsNothingPerJob: a finished job leaves no state behind,
// so the live heap at the end of an open run does not grow with the
// number of jobs it served. Before jobs were retired from the task graph
// each one left about 12.5 KB reachable.
func TestOpenRunRetainsNothingPerJob(t *testing.T) {
	const short, long = 250, 2000
	a := liveHeapAtLastDone(t, short)
	b := liveHeapAtLastDone(t, long)
	perJob := (float64(b) - float64(a)) / (long - short)
	t.Logf("live heap %d B at %d jobs, %d B at %d jobs: %.0f B/job", a, short, b, long, perJob)
	if perJob >= 1024 {
		t.Fatalf("live heap grows %.0f B per finished job, want < 1 KB", perJob)
	}
}

// TestOpenRunBuildErrorFailsRun: a job whose program cannot be built at
// admission ends the run with an error naming the job instead of
// panicking or leaving the run waiting on a job that never entered.
func TestOpenRunBuildErrorFailsRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	spec := openSpec("poisson:lambda=2000,jobs=5")
	spec.Workload = "trace:file=" + missing
	errc := make(chan error, 1)
	go func() {
		_, err := Run(spec)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("run with an unbuildable job succeeded")
		}
		if !strings.Contains(err.Error(), "job 0") || !strings.Contains(err.Error(), filepath.Base(missing)) {
			t.Fatalf("error does not name the job and its cause: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with an unbuildable job did not return")
	}
}

// maxOpenAllocsPerJob pins what one more job of a
// forkjoin:width=8,phases=2 open run allocates, all of it building and
// admitting the job: its program (the Program, its items, task specs
// and tokens), its compiled DAG (the Compiled and its index arrays),
// and the job with its task slab: 8 allocations. Queueing an arrival
// and running a task allocate nothing; the margin above 8 covers the
// amortized growth of the run's per-job records.
const maxOpenAllocsPerJob = 8.1

// TestOpenRunAllocsPerJobFlat: an open run's allocations grow by the
// same small figure per job whether it is 200 jobs long or 2,000, so
// nothing per arrival is queued up front and nothing per task is
// allocated on the dispatch path.
func TestOpenRunAllocsPerJobFlat(t *testing.T) {
	allocs := func(jobs int) float64 {
		spec := RunSpec{
			Workload: "forkjoin:width=8,phases=2,dur=100",
			Policy:   CATA, Cores: 16, FastCores: 8, Seed: 3,
			Arrivals: fmt.Sprintf("poisson:lambda=6000,jobs=%d,cap=256", jobs),
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(200), allocs(2000)
	perJob := (long - short) / 1800
	t.Logf("%v allocs for 200 jobs, %v for 2,000: %.2f per job", short, long, perJob)
	if perJob > maxOpenAllocsPerJob {
		t.Fatalf("%.2f allocations per extra job (%v at 200 jobs, %v at 2,000), want at most %v",
			perJob, short, long, maxOpenAllocsPerJob)
	}
	if short/200 > maxOpenAllocsPerJob+2 {
		t.Fatalf("%v allocations for 200 jobs: %.2f per job, want at most %v",
			short, short/200, maxOpenAllocsPerJob+2)
	}
}
