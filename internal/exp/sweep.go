package exp

import (
	"context"
	"fmt"
	"io"
	"math"

	"cata/internal/batch"
	"cata/internal/opensys"
	"cata/internal/policies"
	"cata/internal/workloads"
)

// SweepOptions configure a batch sweep.
type SweepOptions struct {
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// CachePath, when non-empty, persists completed measurements to a
	// JSONL file keyed by the spec's content hash. The file is opened
	// (and fully parsed) per Sweep call; services running many sweeps
	// should hold one open Cache instead.
	CachePath string
	// Cache, when non-nil, is an already-open result cache shared
	// across sweeps. It takes precedence over CachePath and is not
	// closed by Sweep, so concurrent sweeps see each other's completed
	// results without re-reading the backing file.
	Cache *batch.Cache
	// Resume skips specs whose results are already in the cache.
	Resume bool
	// Progress, when non-nil, receives one status line per completed
	// run (done/total, ETA, live best-EDP).
	Progress io.Writer
	// Observe, when non-nil, receives one structured batch.Event per
	// completed run plus a cache-resume summary — the subscribable
	// progress form behind catad's SSE job streams. Calls arrive from a
	// single goroutine in completion order.
	Observe func(batch.Event)
}

// RunResult is the outcome of one spec in a sweep: a measurement or the
// spec's own error. Failing specs never abort the sweep.
type RunResult struct {
	Spec        RunSpec
	Measurement Measurement
	Err         error
	// Cached reports that the measurement was served from the result
	// cache without re-simulating.
	Cached bool
}

// Sweep executes specs through the batch engine and returns one result
// per spec, in spec order — identical to running them sequentially.
// Canceling ctx stops dispatch, finishes in-flight runs (persisting them
// to the cache), and returns the partial results with ctx.Err(); a later
// Sweep over the same specs with Resume set completes the remainder.
func Sweep(ctx context.Context, specs []RunSpec, opts SweepOptions) ([]RunResult, error) {
	cache := opts.Cache
	if cache == nil && opts.CachePath != "" {
		c, err := batch.Open(opts.CachePath)
		if err != nil {
			return nil, err
		}
		cache = c
		defer c.Close()
	}

	// Note is called from a single goroutine — once per cache-served
	// result, then in completion order — so the best-EDP tracking
	// needs no lock and covers resumed results too.
	bestEDP := math.Inf(1)
	bestSpec := ""
	note := func(r batch.Result[RunSpec, Measurement]) string {
		if r.Err == nil && r.Value.EDP > 0 && r.Value.EDP < bestEDP {
			bestEDP = r.Value.EDP
			bestSpec = r.Spec.String()
		}
		if bestSpec == "" {
			return ""
		}
		return fmt.Sprintf("best EDP %.4g Js (%s)", bestEDP, bestSpec)
	}

	rs, err := batch.Run(ctx, specs,
		func(_ context.Context, s RunSpec) (Measurement, error) { return Run(s) },
		batch.Options[RunSpec, Measurement]{
			Parallelism: opts.Parallelism,
			Cache:       cache,
			Key:         cacheKey,
			Resume:      opts.Resume,
			Progress:    opts.Progress,
			Observe:     opts.Observe,
			Note:        note,
		})
	out := make([]RunResult, len(rs))
	for i, r := range rs {
		out[i] = RunResult{Spec: r.Spec, Measurement: r.Value, Err: r.Err, Cached: r.Cached}
	}
	return out, err
}

// cacheKey hashes the defaulted spec so that e.g. Cores 0 and Cores 32
// share a cache entry. The workload spec is replaced by its cache token
// — the canonical parameter spelling plus, for file-backed workloads,
// the file's content hash — so generated-workload parameters key the
// cache correctly and editing a trace file never reuses a stale result.
// The policy and arrival specs canonicalize through their registries the
// same way. Specs carrying an in-memory program or output writers are
// not content-addressable and are never cached, as are specs whose
// workload, policy or arrivals fail to resolve (those runs fail anyway).
func cacheKey(s RunSpec) (string, bool) {
	if s.Program != nil || s.Trace != nil || s.Timeline != nil {
		return "", false
	}
	s = s.withDefaults()
	tok, err := workloads.CacheToken(s.Workload)
	if err != nil {
		return "", false
	}
	s.Workload = tok
	// The policy spec canonicalizes the same way: case and parameter
	// order fold away, so two spellings of one configuration share a
	// cache entry. For the built-in bare specs the canonical form is the
	// paper label — exactly what keys always hashed — so existing cached
	// results stay addressable.
	canon, err := policies.Canonicalize(string(s.Policy))
	if err != nil {
		return "", false
	}
	s.Policy = Policy(canon)
	if s.Arrivals != "" {
		if s.Arrivals, err = opensys.Canonicalize(s.Arrivals); err != nil {
			return "", false
		}
	}
	k, err := batch.Key(s)
	if err != nil {
		return "", false
	}
	return k, true
}
