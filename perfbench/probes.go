package main

// Probes every traced run makes, whatever its workload: the batch
// cache's key, get and put paths timed on a scratch cache, and the cost
// of the program's own flight recorder on sample cells.

import (
	"io"
	"path/filepath"
	"time"

	"cata/internal/batch"
	"cata/internal/exp"
	"cata/internal/workloads"
)

func probes(c config, t *tally, tr *tracer) (figures, error) {
	f := figures{}
	scale := 1.0
	if c.tiny {
		scale = 0.05
	}

	// The cache stores measurements keyed by spec hashes, as a sweep
	// with a cache does.
	value, err := exp.Run(exp.RunSpec{Workload: "swaptions", Policy: exp.CATA, FastCores: 16, Scale: scale})
	t.op(err)
	if err != nil {
		return nil, err
	}
	var specs []exp.RunSpec
	for i := range 2000 {
		specs = append(specs, exp.RunSpec{
			Workload: workloads.Names()[i%6], Policy: paperPolicies[i/6%6], FastCores: 16,
			Cores: 32, Seed: derive(c.seed, "probe.key", i), Scale: scale,
		})
	}
	cache, err := batch.Open(filepath.Join(c.tmp, "probe.cache.jsonl"))
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	keys := make([]string, len(specs))
	end := tr.start("batch.key", "", 0, 0)
	t0 := time.Now()
	for i, s := range specs {
		if keys[i], err = batch.Key(s); err != nil {
			end()
			return nil, err
		}
	}
	f.set("batch.key_us", perCallUS(time.Since(t0), len(specs)), "us")
	end()
	end = tr.start("batch.cache_put", "", 0, 0)
	t0 = time.Now()
	for _, k := range keys {
		if err := cache.Put(k, value); err != nil {
			end()
			return nil, err
		}
	}
	f.set("batch.cache_put_us", perCallUS(time.Since(t0), len(keys)), "us")
	end()
	end = tr.start("batch.cache_get", "", 0, 0)
	t0 = time.Now()
	found := 0
	for _, k := range keys {
		if _, ok := cache.Get(k); ok {
			found++
		}
	}
	f.set("batch.cache_get_us", perCallUS(time.Since(t0), len(keys)), "us")
	end()
	t.ops(int64(3 * len(keys)))
	t.check(found == len(keys), "scratch cache returned %d of %d keys", found, len(keys))

	// The flight recorder: each sample cell runs alternately with the
	// trace sent to io.Discard and without it; results must not change.
	cells := []exp.RunSpec{
		{Workload: "swaptions", Policy: exp.CATA, FastCores: 16, Scale: scale},
		{Workload: "bodytrack", Policy: exp.CATARSU, FastCores: 16, Scale: scale},
		{Workload: "dedup", Policy: exp.FIFO, FastCores: 8, Scale: scale},
	}
	var plain, recorded float64
	for _, s := range cells {
		var off, on []float64
		for range 5 {
			t0 := time.Now()
			a, err := exp.Run(s)
			off = append(off, ms(time.Since(t0)))
			t.op(err)
			traced := s
			traced.Trace = io.Discard
			end := tr.start("exp.simulate", "traced", 0, 0)
			t0 = time.Now()
			b, err := exp.Run(traced)
			on = append(on, ms(time.Since(t0)))
			end()
			t.op(err)
			t.check(mustJSON(a) == mustJSON(b), "%v: traced run differs from untraced", s)
		}
		plain += median(off)
		recorded += median(on)
	}
	f.set("trace.overhead_pct", 100*(recorded/plain-1), "%")
	return f, nil
}

func perCallUS(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}
