// Package batch is the sweep execution engine behind every large-scale
// evaluation: it fans a list of run specs across a bounded worker pool,
// isolates per-run failures, streams progress, and persists completed
// results to a content-addressed JSONL cache so interrupted sweeps resume
// without redoing finished work.
//
// The engine is generic over the spec and result types; internal/exp
// instantiates it with (RunSpec, Measurement) and the public API exposes
// it as cata.RunBatch. Results always come back in spec order, identical
// to a sequential execution of the same specs, regardless of parallelism.
package batch

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"sync"
	"time"
)

// ErrNotRun marks a result whose spec was never executed because the
// batch was canceled before its turn came.
var ErrNotRun = errors.New("batch: spec not run")

// Result is the outcome of one spec: either a value, or the spec's own
// error. A failing spec never aborts the batch; callers that want
// fail-fast semantics scan the results themselves.
type Result[S, R any] struct {
	// Index is the spec's position in the input slice.
	Index int
	// Spec is the input spec, unmodified.
	Spec S
	// Value is the runner's result when Err is nil.
	Value R
	// Err is the spec's own failure (or ErrNotRun / the context error
	// when the batch was canceled before this spec ran).
	Err error
	// Cached reports that Value was served from the cache without
	// running the spec.
	Cached bool
	// Elapsed is the wall-clock time the run took (zero when cached).
	Elapsed time.Duration
}

// Options configure a batch run.
type Options[S, R any] struct {
	// Parallelism bounds concurrent runs (default GOMAXPROCS).
	Parallelism int
	// Key returns the content-addressed cache key for a spec, or
	// ok=false for specs that must not be cached (e.g. specs carrying
	// writers or in-memory programs). Ignored when Cache is nil.
	Key func(S) (key string, ok bool)
	// Cache, when non-nil, receives every successful result. With
	// Resume set, specs whose key is already present are served from
	// the cache instead of running.
	Cache *Cache
	// Resume skips specs already present in Cache.
	Resume bool
	// Progress, when non-nil, receives one status line per completed
	// run (done/total, percent, ETA) plus a resume summary.
	Progress io.Writer
	// Observe, when non-nil, receives one structured Event per
	// completed run plus a resume summary — the subscribable form of
	// Progress, used by long-running services to stream batch progress
	// to remote clients. All calls come from a single goroutine, in
	// completion order.
	Observe func(Event)
	// Plan, when non-nil, is called once before any spec runs, with the
	// indices of the specs that will be dispatched — every spec not
	// served from the cache — in dispatch order. Runners that share
	// per-spec resources use it to learn how many runs will use each.
	Plan func(pending []int)
	// Note, when non-nil, annotates each progress line. It is also
	// called once per cache-served result before execution starts, so
	// state it accumulates (e.g. a running best-EDP) covers the whole
	// batch, not just the freshly executed part. All calls come from
	// a single goroutine, so it may keep state without locking.
	Note func(Result[S, R]) string
}

// Run executes specs through runner under the options' worker pool and
// returns one Result per spec, in spec order.
//
// Cancellation stops dispatching new specs, waits for in-flight runs to
// finish (their results are recorded and cached), marks never-started
// specs with the context error, and returns the partial results along
// with ctx.Err(). Cache write failures never abort the batch: every
// spec still runs, and the first write error comes back as the batch
// error (joined with ctx.Err() when both occurred).
func Run[S, R any](ctx context.Context, specs []S, runner func(context.Context, S) (R, error), opts Options[S, R]) ([]Result[S, R], error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	results := make([]Result[S, R], len(specs))
	keys := make([]string, len(specs))
	var pending []int
	cached := 0
	for i, s := range specs {
		results[i] = Result[S, R]{Index: i, Spec: s, Err: ErrNotRun}
		if opts.Cache != nil && opts.Key != nil {
			if k, ok := opts.Key(s); ok {
				keys[i] = k
				if opts.Resume {
					if raw, ok := opts.Cache.Get(k); ok {
						var v R
						if err := json.Unmarshal(raw, &v); err == nil {
							results[i] = Result[S, R]{Index: i, Spec: s, Value: v, Cached: true}
							cached++
							mCacheHits.Inc()
							if opts.Note != nil {
								opts.Note(results[i])
							}
							continue
						}
					}
					mCacheMisses.Inc()
				}
			}
		}
		pending = append(pending, i)
	}

	if opts.Plan != nil {
		opts.Plan(pending)
	}
	prog := newProgress(opts.Progress, opts.Observe, len(specs))
	prog.resumed(cached)

	jobs := make(chan int)
	completions := make(chan Result[S, R])
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A job can be dispatched in the same instant the
				// context is canceled; don't start it in that case.
				if err := ctx.Err(); err != nil {
					completions <- Result[S, R]{Index: i, Spec: specs[i], Err: err}
					continue
				}
				start := time.Now()
				v, err := runner(ctx, specs[i])
				completions <- Result[S, R]{
					Index: i, Spec: specs[i], Value: v, Err: err,
					Elapsed: time.Since(start),
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, i := range pending {
			select {
			case <-ctx.Done():
				return
			default:
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(completions)
	}()

	var cacheErr error
	for r := range completions {
		results[r.Index] = r
		if r.Err == nil {
			mSpecs.With("ok").Inc()
		} else {
			mSpecs.With("error").Inc()
		}
		if r.Err == nil && opts.Cache != nil && keys[r.Index] != "" {
			if err := opts.Cache.Put(keys[r.Index], r.Value); err != nil && cacheErr == nil {
				cacheErr = err
			}
		}
		note := ""
		if opts.Note != nil {
			note = opts.Note(r)
		}
		prog.completed(r.Index, r.Spec, r.Elapsed, r.Err, note)
	}

	if err := ctx.Err(); err != nil {
		for i := range results {
			if errors.Is(results[i].Err, ErrNotRun) {
				results[i].Err = err
			}
		}
		return results, errors.Join(err, cacheErr)
	}
	return results, cacheErr
}
