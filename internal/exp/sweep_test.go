package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"cata/internal/sim"
)

// sweepSpecs is a small cross-product touching several policies and
// budgets at a tiny scale.
func sweepSpecs() []RunSpec {
	var specs []RunSpec
	for _, p := range []Policy{FIFO, CATA, CATARSU} {
		for _, fast := range []int{8, 16} {
			specs = append(specs, RunSpec{
				Workload: "swaptions", Policy: p, FastCores: fast, Scale: 0.1,
			})
		}
	}
	return specs
}

// TestSweepMatchesSequential: the parallel engine must return, spec for
// spec, byte-identical measurements to a plain sequential loop over Run.
func TestSweepMatchesSequential(t *testing.T) {
	specs := sweepSpecs()
	want := make([]Measurement, len(specs))
	for i, s := range specs {
		m, err := Run(s)
		if err != nil {
			t.Fatalf("sequential %v: %v", s, err)
		}
		want[i] = m
	}
	rs, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("sweep %v: %v", r.Spec, r.Err)
		}
		got, _ := json.Marshal(r.Value)
		seq, _ := json.Marshal(want[i])
		if !bytes.Equal(got, seq) {
			t.Errorf("spec %v:\nsweep      %s\nsequential %s", r.Spec, got, seq)
		}
	}
}

// TestSweepErrorIsolation: an unknown workload fails its own spec only.
func TestSweepErrorIsolation(t *testing.T) {
	specs := []RunSpec{
		{Workload: "swaptions", Policy: FIFO, FastCores: 8, Scale: 0.05},
		{Workload: "no-such-benchmark", Policy: FIFO, FastCores: 8, Scale: 0.05},
		{Workload: "swaptions", Policy: CATA, FastCores: 8, Scale: 0.05},
	}
	rs, err := Sweep(context.Background(), specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Err == nil {
		t.Fatal("bad workload should fail its spec")
	}
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy specs failed: %v, %v", rs[0].Err, rs[2].Err)
	}
	if rs[0].Value.TasksRun == 0 || rs[2].Value.TasksRun == 0 {
		t.Fatal("healthy specs returned empty measurements")
	}
}

// TestSweepResumeAfterCancel simulates a killed sweep: cancel partway,
// then resume from the cache and check the completed matrix matches a
// sequential run spec-for-spec without re-running cached cells.
func TestSweepResumeAfterCancel(t *testing.T) {
	specs := sweepSpecs()
	cachePath := filepath.Join(t.TempDir(), "sweep.jsonl")

	// First pass: cancel the context as soon as the first result lands.
	// In-flight runs still complete and persist; the rest never start.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var progress cancelingWriter
	progress.after = 1
	progress.cancel = func() { cancel(); close(done) }
	rs, err := Sweep(ctx, specs, SweepOptions{
		Parallelism: 2, CachePath: cachePath, Progress: &progress,
	})
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	finished := 0
	for _, r := range rs {
		if r.Err == nil {
			finished++
		}
	}
	if finished == 0 || finished == len(specs) {
		t.Fatalf("interrupted sweep finished %d/%d specs; want a strict subset", finished, len(specs))
	}

	// Second pass: resume. Previously finished specs must come from the
	// cache; the full result set must match a sequential run.
	rs2, err := Sweep(context.Background(), specs, SweepOptions{
		Parallelism: 2, CachePath: cachePath, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedCount := 0
	for i, r := range rs2 {
		if r.Err != nil {
			t.Fatalf("resumed spec %v: %v", r.Spec, r.Err)
		}
		if r.Cached {
			cachedCount++
		}
		seq, err := Run(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(r.Value)
		want, _ := json.Marshal(seq)
		if !bytes.Equal(got, want) {
			t.Errorf("spec %v after resume:\ngot  %s\nwant %s", r.Spec, got, want)
		}
	}
	if cachedCount < finished {
		t.Errorf("resume served %d specs from cache, but %d had finished", cachedCount, finished)
	}
}

// cancelingWriter triggers cancel after the first `after` progress lines.
type cancelingWriter struct {
	after  int
	seen   int
	cancel func()
}

func (w *cancelingWriter) Write(p []byte) (int, error) {
	w.seen++
	if w.seen == w.after {
		w.cancel()
	}
	return len(p), nil
}

// TestRunSpecJSONRoundTrip: the portable fields survive JSON, defaults
// normalize into the cache key, and policies encode as paper labels.
func TestRunSpecJSONRoundTrip(t *testing.T) {
	in := RunSpec{
		Workload: "dedup", Policy: CATARSU, FastCores: 24, Cores: 32,
		Seed: 7, Scale: 0.5, MaxSimTime: 20 * sim.Second,
		TransitionLatency: 25 * sim.Microsecond,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"policy":"CATA+RSU"`)) {
		t.Fatalf("policy should encode as its label: %s", b)
	}
	var out RunSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed spec:\nin  %+v\nout %+v", in, out)
	}
}

// TestCacheKeyNormalizesDefaults: a zero-value field and its explicit
// default must address the same cache entry.
func TestCacheKeyNormalizesDefaults(t *testing.T) {
	a := RunSpec{Workload: "ferret", Policy: CATA, FastCores: 16}
	b := a
	b.Cores = 32
	b.Seed = 42
	b.Scale = 1.0
	b.MaxSimTime = 20 * sim.Second
	ka, ok := cacheKey(a)
	if !ok {
		t.Fatal("spec should be cacheable")
	}
	kb, _ := cacheKey(b)
	if ka != kb {
		t.Fatalf("defaulted and explicit specs hash differently: %s vs %s", ka, kb)
	}
	c := a
	c.Seed = 43
	if kc, _ := cacheKey(c); kc == ka {
		t.Fatal("different seeds must hash differently")
	}
	d := a
	d.Timeline = &bytes.Buffer{}
	if _, ok := cacheKey(d); ok {
		t.Fatal("specs with writers must not be cacheable")
	}
}

// TestMeasurementJSONRoundTrip: measurements must survive the cache.
func TestMeasurementJSONRoundTrip(t *testing.T) {
	m, err := Run(RunSpec{Workload: "swaptions", Policy: CATA, FastCores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var out Measurement
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, out) {
		t.Fatalf("round trip changed measurement:\nin  %+v\nout %+v", m, out)
	}
}
