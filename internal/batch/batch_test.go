package batch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type spec struct {
	ID int `json:"id"`
}

func double(_ context.Context, s spec) (int, error) { return 2 * s.ID, nil }

func specs(n int) []spec {
	ss := make([]spec, n)
	for i := range ss {
		ss[i] = spec{ID: i}
	}
	return ss
}

// TestOrderedResults: results come back in spec order whatever the
// parallelism, with indices and values intact.
func TestOrderedResults(t *testing.T) {
	for _, par := range []int{1, 4, 32} {
		rs, err := Run(context.Background(), specs(100), double, Options[spec, int]{Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(rs) != 100 {
			t.Fatalf("par=%d: got %d results", par, len(rs))
		}
		for i, r := range rs {
			if r.Index != i || r.Spec.ID != i || r.Value != 2*i || r.Err != nil || r.Cached {
				t.Fatalf("par=%d: result %d = %+v", par, i, r)
			}
		}
	}
}

// TestErrorIsolation: a failing spec yields its own error record and the
// rest of the batch still completes.
func TestErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	runner := func(_ context.Context, s spec) (int, error) {
		if s.ID%3 == 0 {
			return 0, fmt.Errorf("spec %d: %w", s.ID, boom)
		}
		return 2 * s.ID, nil
	}
	rs, err := Run(context.Background(), specs(30), runner, Options[spec, int]{Parallelism: 8})
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	for i, r := range rs {
		if i%3 == 0 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("result %d: want boom, got %v", i, r.Err)
			}
		} else if r.Err != nil || r.Value != 2*i {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
}

// TestCancellationMidSweep: canceling the context stops dispatch, keeps
// already-finished results, and marks unstarted specs with the context
// error.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var once sync.Once
	runner := func(ctx context.Context, s spec) (int, error) {
		if ran.Add(1) >= 5 {
			once.Do(cancel)
		}
		return 2 * s.ID, nil
	}
	rs, err := Run(ctx, specs(50), runner, Options[spec, int]{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var done, notRun int
	for _, r := range rs {
		switch {
		case r.Err == nil:
			done++
		case errors.Is(r.Err, context.Canceled):
			notRun++
		default:
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if got := int(ran.Load()); done != got {
		t.Fatalf("completed %d results but ran %d specs", done, got)
	}
	if notRun == 0 || done+notRun != 50 {
		t.Fatalf("done=%d notRun=%d, want them to partition 50 with some skipped", done, notRun)
	}
}

// TestResumeSkipsCompleted: a second run against the same cache executes
// nothing and returns identical values.
func TestResumeSkipsCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	key := func(s spec) (string, bool) {
		k, err := Key(s)
		return k, err == nil
	}

	c1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), specs(20), double,
		Options[spec, int]{Parallelism: 4, Cache: c1, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 20 {
		t.Fatalf("reloaded cache has %d entries, want 20", c2.Len())
	}
	var ran atomic.Int64
	counting := func(ctx context.Context, s spec) (int, error) {
		ran.Add(1)
		return double(ctx, s)
	}
	second, err := Run(context.Background(), specs(20), counting,
		Options[spec, int]{Parallelism: 4, Cache: c2, Key: key, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("resume re-ran %d specs", n)
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("result %d not served from cache", i)
		}
		if second[i].Value != first[i].Value {
			t.Fatalf("result %d: cached %d != fresh %d", i, second[i].Value, first[i].Value)
		}
	}
}

// TestResumePartialCache: only the missing specs run.
func TestResumePartialCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	key := func(s spec) (string, bool) {
		k, err := Key(s)
		return k, err == nil
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range specs(20)[:12] {
		k, _ := key(s)
		if err := c.Put(k, 2*s.ID); err != nil {
			t.Fatal(err)
		}
	}
	var ran atomic.Int64
	counting := func(ctx context.Context, s spec) (int, error) {
		ran.Add(1)
		return double(ctx, s)
	}
	rs, err := Run(context.Background(), specs(20), counting,
		Options[spec, int]{Cache: c, Key: key, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 8 {
		t.Fatalf("ran %d specs, want 8", n)
	}
	for i, r := range rs {
		if r.Value != 2*i {
			t.Fatalf("result %d = %d", i, r.Value)
		}
		if wantCached := i < 12; r.Cached != wantCached {
			t.Fatalf("result %d: cached=%v, want %v", i, r.Cached, wantCached)
		}
	}
}

// TestCacheIgnoresTruncatedLine: a kill mid-append leaves a partial last
// line; Open must skip it and keep the intact records.
func TestCacheIgnoresTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", 11); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k2", 22); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k3","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 {
		t.Fatalf("got %d entries, want 2", c2.Len())
	}
	if _, ok := c2.Get("k3"); ok {
		t.Fatal("truncated record should not load")
	}
}

// TestProgressStream: progress lines reach the writer with counts, the
// resume summary, failures, and the caller's note.
func TestProgressStream(t *testing.T) {
	var buf strings.Builder
	c, err := Open(filepath.Join(t.TempDir(), "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := func(s spec) (string, bool) {
		k, err := Key(s)
		return k, err == nil
	}
	k0, _ := key(spec{ID: 0})
	if err := c.Put(k0, 0); err != nil {
		t.Fatal(err)
	}
	runner := func(_ context.Context, s spec) (int, error) {
		if s.ID == 2 {
			return 0, errors.New("boom")
		}
		return 2 * s.ID, nil
	}
	_, err = Run(context.Background(), specs(3), runner, Options[spec, int]{
		Parallelism: 1, Cache: c, Key: key, Resume: true,
		Progress: &buf,
		Note:     func(r Result[spec, int]) string { return fmt.Sprintf("id=%d", r.Spec.ID) },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"resume: 1/3 already cached",
		"2/3 (66%)",
		"3/3 (100%)",
		"FAILED: boom",
		"id=1",
		"1 failed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

// TestKeyStability: the key is deterministic and sensitive to content.
func TestKeyStability(t *testing.T) {
	a1, err := Key(spec{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Key(spec{ID: 7})
	b, _ := Key(spec{ID: 8})
	if a1 != a2 {
		t.Fatalf("same content hashed differently: %s vs %s", a1, a2)
	}
	if a1 == b {
		t.Fatal("different content hashed equal")
	}
	if len(a1) != 64 {
		t.Fatalf("key %q is not a hex sha256", a1)
	}
}

// TestEtaMonotonicSetup sanity-checks the ETA extrapolation arithmetic.
func TestEtaMonotonicSetup(t *testing.T) {
	p := newProgress(nil, nil, 10)
	base := time.Unix(0, 0)
	p.start = base
	p.now = func() time.Time { return base.Add(10 * time.Second) }
	p.done = 5
	eta, ok := p.eta()
	if !ok || eta != 10*time.Second {
		t.Fatalf("eta = %v, %v; want 10s, true", eta, ok)
	}
	p.done = 10
	if _, ok := p.eta(); ok {
		t.Fatal("eta should be unavailable when done")
	}

	// Cache hits are instant and must not count toward the pace: with 5
	// cached and 1 executed in 10s, 4 remain at ~10s each, not ~1.6s.
	r := newProgress(nil, nil, 10)
	r.start = base
	r.now = func() time.Time { return base.Add(10 * time.Second) }
	r.resumed(5)
	r.done++
	eta, ok = r.eta()
	if !ok || eta != 40*time.Second {
		t.Fatalf("resumed eta = %v, %v; want 40s, true", eta, ok)
	}
}

// TestObserve: the structured observer sees one event per completed
// run with consistent counters, and a resumed batch opens with a
// cache-summary event (Index -1) counting the served runs.
func TestObserve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	cache, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	key := func(s spec) (string, bool) { return fmt.Sprintf("k%d", s.ID), true }

	var events []Event
	opts := Options[spec, int]{
		Parallelism: 4,
		Cache:       cache, Key: key,
		Observe: func(e Event) { events = append(events, e) },
	}
	if _, err := Run(context.Background(), specs(10), double, opts); err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("got %d events, want 10", len(events))
	}
	seen := map[int]bool{}
	for i, e := range events {
		if e.Done != i+1 || e.Total != 10 || e.Cached != 0 || e.Failed != 0 {
			t.Fatalf("event %d counters = %+v", i, e)
		}
		if e.Err != "" || e.Spec == "" {
			t.Fatalf("event %d = %+v", i, e)
		}
		seen[e.Index] = true
	}
	if len(seen) != 10 {
		t.Fatalf("indices not unique: %v", seen)
	}
	cache.Close()

	// Resume: everything cached → a single summary event, Index -1.
	cache2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	events = nil
	opts.Cache, opts.Resume = cache2, true
	if _, err := Run(context.Background(), specs(10), double, opts); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("resumed batch got %d events, want 1 summary", len(events))
	}
	sum := events[0]
	if sum.Index != -1 || sum.Done != 10 || sum.Total != 10 || sum.Cached != 10 {
		t.Fatalf("summary event = %+v", sum)
	}
}

// TestPlanListsSpecsThatRun: Plan is called once, before any spec runs,
// with exactly the specs the cache does not serve, in dispatch order.
func TestPlanListsSpecsThatRun(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := func(s spec) (string, bool) {
		k, err := Key(s)
		return k, err == nil
	}
	for _, id := range []int{1, 4, 5} {
		k, _ := key(spec{ID: id})
		if err := c.Put(k, 2*id); err != nil {
			t.Fatal(err)
		}
	}
	var plans [][]int
	var ran atomic.Int64
	counting := func(ctx context.Context, s spec) (int, error) {
		if len(plans) != 1 {
			t.Errorf("spec %d ran before Plan", s.ID)
		}
		ran.Add(1)
		return double(ctx, s)
	}
	_, err = Run(context.Background(), specs(7), counting, Options[spec, int]{
		Parallelism: 3, Cache: c, Key: key, Resume: true,
		Plan: func(pending []int) { plans = append(plans, append([]int(nil), pending...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 3, 6}; len(plans) != 1 || fmt.Sprint(plans[0]) != fmt.Sprint(want) {
		t.Fatalf("Plan calls %v, want one with %v", plans, want)
	}
	if ran.Load() != 4 {
		t.Fatalf("%d specs ran, want 4", ran.Load())
	}
}
