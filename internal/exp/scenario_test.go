package exp

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cata/internal/program"
	"cata/internal/workloads"
)

// scenarioSpec is a small synthetic workload used across these tests.
const scenarioSpec = "layered:seed=7,width=6,depth=8"

// TestSyntheticMeasurementParallelismInvariant: the same synthetic spec
// measured at -j 1 and -j 8 yields identical Measurements — determinism
// survives the worker pool.
func TestSyntheticMeasurementParallelismInvariant(t *testing.T) {
	specs := []RunSpec{
		{Workload: scenarioSpec, Policy: CATA, FastCores: 4, Cores: 8},
		{Workload: scenarioSpec, Policy: CATARSU, FastCores: 4, Cores: 8},
		{Workload: scenarioSpec, Policy: FIFO, FastCores: 4, Cores: 8},
		{Workload: "wavefront:rows=5,cols=5", Policy: CATSBL, FastCores: 4, Cores: 8},
	}
	seq, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("spec %d failed: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Measurement, par[i].Measurement) {
			t.Fatalf("spec %d: -j 1 and -j 8 measurements differ:\n%+v\n%+v",
				i, seq[i].Measurement, par[i].Measurement)
		}
	}
}

// TestCacheKeyCanonicalizesWorkloadSpecs: parameter spelling order does
// not fork the cache; different parameters do.
func TestCacheKeyCanonicalizesWorkloadSpecs(t *testing.T) {
	key := func(w string) string {
		t.Helper()
		k, ok := cacheKey(RunSpec{Workload: w, Policy: CATA, FastCores: 4})
		if !ok {
			t.Fatalf("cacheKey(%q) not cacheable", w)
		}
		return k
	}
	a := key("layered:width=6,depth=8")
	b := key("layered:depth=8,width=6")
	if a != b {
		t.Fatal("parameter order forked the cache key")
	}
	if a == key("layered:depth=8,width=7") {
		t.Fatal("different width shares a cache key")
	}
	if a == key("layered:depth=8,width=6,seed=9") {
		t.Fatal("generated-workload seed missing from the cache key")
	}
	if _, ok := cacheKey(RunSpec{Workload: "nope", Policy: CATA}); ok {
		t.Fatal("unknown workload is cacheable")
	}
	if _, ok := cacheKey(RunSpec{Workload: "trace:file=/does/not/exist", Policy: CATA}); ok {
		t.Fatal("unreadable trace file is cacheable")
	}

	// Arrival specs canonicalize the same way: kind case, parameter
	// order and whitespace fold away; different values do not.
	open := func(arrivals string) string {
		t.Helper()
		k, ok := cacheKey(RunSpec{Workload: "forkjoin:width=4,phases=2", Policy: CATA, FastCores: 4, Arrivals: arrivals})
		if !ok {
			t.Fatalf("cacheKey(arrivals %q) not cacheable", arrivals)
		}
		return k
	}
	o := open("poisson:lambda=2000,jobs=4")
	for _, same := range []string{"poisson:jobs=4, lambda=2000", " Poisson : jobs=4,lambda=2000 "} {
		if open(same) != o {
			t.Fatalf("arrivals %q forked the cache key", same)
		}
	}
	if open("poisson:lambda=2000,jobs=5") == o {
		t.Fatal("different arrival count shares a cache key")
	}
	if _, ok := cacheKey(RunSpec{Workload: "dedup", Policy: CATA, Arrivals: "poisson:lambda=1,jobs=1e3"}); ok {
		t.Fatal("invalid arrivals spec is cacheable")
	}
}

// TestCacheKeyPinned pins closed-system cache keys to literal values, so
// a refactor of spec parsing or canonicalization cannot silently orphan
// every cached result.
func TestCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Workload: "dedup", Policy: CATA, FastCores: 16},
			"dc87d8a69093cef0419f530458e6de03f264a81056a9dc36ba3b19fdee07dbd4"},
		{RunSpec{Workload: "layered:width=6,depth=8", Policy: "CATS+BL:theta=0.8", FastCores: 8},
			"0098c938d1f3d8f4f6f9353f73de54053de1b2ed338f539fa319dcbdf1e3154c"},
		{RunSpec{Workload: "forkjoin:width=8,phases=2,dur=100", Policy: CATARSU, FastCores: 24, Seed: 7, Scale: 0.5},
			"eef515cc0af0fdcd061c2c6ded56a21941415e8b05623b921dc3112bc295f6c5"},
	} {
		got, ok := cacheKey(tc.spec)
		if !ok || got != tc.want {
			t.Errorf("cacheKey(%v) = %q, %v; want %q", tc.spec, got, ok, tc.want)
		}
	}
}

// TestTraceReplayReproducesRunExactly: exporting any workload to a JSON
// trace and replaying it through the trace importer reproduces the
// original measurement bit for bit — same makespan, energy and EDP.
func TestTraceReplayReproducesRunExactly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capture.json")
	prog, err := workloads.Build(scenarioSpec, 42, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := program.WriteJSON(f, prog); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, pol := range []Policy{FIFO, CATA, CATARSU} {
		orig, err := Run(RunSpec{Workload: scenarioSpec, Policy: pol, FastCores: 4, Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		replay, err := Run(RunSpec{Workload: "trace:file=" + path, Policy: pol, FastCores: 4, Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		if orig.Makespan != replay.Makespan || orig.Joules != replay.Joules || orig.EDP != replay.EDP ||
			orig.TasksRun != replay.TasksRun || orig.CriticalTasks != replay.CriticalTasks {
			t.Fatalf("%v: replay diverged:\noriginal %+v\nreplay   %+v", pol, orig, replay)
		}
	}
}

// TestRunParameterizedWorkloadSpecs: specs with parameters run through
// the ordinary Run path under every policy family.
func TestRunParameterizedWorkloadSpecs(t *testing.T) {
	for _, w := range []string{
		"chain:length=6,side=2",
		"pipeline:items=8,stages=3",
		"forkjoin:width=6,phases=2",
	} {
		m, err := Run(RunSpec{Workload: w, Policy: CATA, FastCores: 4, Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		if m.Makespan <= 0 || m.TasksRun == 0 || m.CriticalTasks == 0 {
			t.Fatalf("%s: degenerate measurement %+v", w, m)
		}
	}
}
