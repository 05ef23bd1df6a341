package cata

import (
	"context"
	"io"

	"cata/internal/batch"
	"cata/internal/exp"
)

// BatchProgress is one structured progress update of a running batch,
// delivered through BatchOptions.OnProgress: a snapshot of the batch
// counters (Done, Total, Cached, Failed) plus the run that just
// completed (its Index in the input slice, or -1 for the initial
// cache-resume summary; its Spec, Err and Elapsed wall time), an ETA
// for the rest, and the engine's Note (the live best-EDP
// configuration). Events arrive from a single goroutine in completion
// order, so handlers may keep state without locking.
type BatchProgress = batch.Event

// BatchCache is an open handle on a content-addressed JSONL result
// cache, for callers that run many batches against one cache file —
// catad holds one for its whole lifetime. Compared to per-batch
// CachePath opens, a shared handle parses the file once and lets
// concurrent batches see each other's completed results immediately.
// All methods are safe for concurrent use.
type BatchCache struct {
	c *batch.Cache
}

// OpenBatchCache opens the JSONL result cache at path, creating the
// file if absent.
func OpenBatchCache(path string) (*BatchCache, error) {
	c, err := batch.Open(path)
	if err != nil {
		return nil, err
	}
	return &BatchCache{c: c}, nil
}

// Len returns the number of distinct cached results.
func (c *BatchCache) Len() int { return c.c.Len() }

// Close releases the backing file.
func (c *BatchCache) Close() error { return c.c.Close() }

// BatchOptions configure a batch of simulations (RunBatch) or a matrix
// evaluation (MatrixConfig.Batch).
type BatchOptions struct {
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// CachePath, when non-empty, persists every completed result to a
	// JSONL file keyed by a content hash of the run's configuration.
	// An interrupted batch re-invoked with Resume set skips the runs
	// already in the cache. The file is opened and parsed per batch;
	// long-running callers should hold a Cache handle instead.
	CachePath string
	// Cache, when non-nil, is a shared open cache used instead of
	// CachePath (and left open when the batch finishes).
	Cache *BatchCache
	// Resume serves runs already present in the cache instead of
	// re-simulating them.
	Resume bool
	// Progress, when non-nil, receives one status line per completed
	// run: done/total, an ETA, and the live best-EDP configuration.
	Progress io.Writer
	// OnProgress, when non-nil, receives one structured BatchProgress
	// event per completed run (plus a summary event when a resumed
	// batch served runs from the cache) — the subscribable form of
	// Progress, used by catad to stream job progress over SSE.
	OnProgress func(BatchProgress)
}

func (o BatchOptions) internal() exp.SweepOptions {
	opts := exp.SweepOptions{
		Parallelism: o.Parallelism,
		CachePath:   o.CachePath,
		Resume:      o.Resume,
		Progress:    o.Progress,
		Observe:     o.OnProgress,
	}
	if o.Cache != nil {
		opts.Cache = o.Cache.c
	}
	return opts
}

// BatchResult is the outcome of one configuration in a batch: either a
// result or that run's own error. A failing run never aborts the batch.
type BatchResult struct {
	Config RunConfig
	Result Result
	Err    error
	// Cached reports that the result was served from the cache.
	Cached bool
}

// RunBatch executes configurations in parallel through the sweep engine
// and returns one BatchResult per config, in input order — identical to
// running them sequentially through Run.
//
// Canceling ctx stops dispatching new runs, waits for in-flight ones
// (persisting them when a cache is configured), and returns the partial
// results together with ctx.Err(). Configs carrying a custom Program or
// trace/timeline writers run normally but are never cached.
func RunBatch(ctx context.Context, cfgs []RunConfig, opts BatchOptions) ([]BatchResult, error) {
	specs := make([]exp.RunSpec, len(cfgs))
	for i, cfg := range cfgs {
		s, err := cfg.spec()
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	rs, err := exp.Sweep(ctx, specs, opts.internal())
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		out[i] = BatchResult{Config: cfgs[i], Err: r.Err, Cached: r.Cached}
		if r.Err == nil {
			out[i].Result = toResult(r.Value)
		}
	}
	return out, err
}
