package main

// catad-service: the daemon as its users see it — an in-process catad
// reached over loopback by one closed-loop client per CPU, each
// submitting a single paper-workload run and waiting for its result.
// A fixed share of requests resubmit a configuration already in the
// result cache (hits skip the simulator, so server, job manager, cache
// and JSON costs dominate); the rest carry a fresh seed (misses
// simulate, then write the cache).

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"cata"
	"cata/internal/server"
	"cata/internal/workloads"
)

// service is one running daemon with its client and scratch cache.
type service struct {
	dir    string
	srv    *server.Server
	ts     *httptest.Server
	client *cata.ServiceClient
}

func startService(parent string) (*service, error) {
	dir, err := os.MkdirTemp(parent, "catad-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Workers:   runtime.GOMAXPROCS(0),
		CachePath: dir + "/cache.jsonl",
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &service{dir: dir, srv: srv, ts: ts, client: cata.NewServiceClient(ts.URL, ts.Client())}, nil
}

// close drains the daemon, stops the listener and removes the cache.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.ts.Close()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// hitSet is the configurations resubmitted as cache hits: every paper
// workload under CATA and CATA+RSU at 16 fast cores, at seeds derived
// from the benchmark seed.
func hitSet(c config) []cata.RunConfig {
	nseeds, scale := 4, 1.0
	if c.tiny {
		nseeds, scale = 1, 0.05
	}
	var out []cata.RunConfig
	for _, w := range workloads.Names() {
		for _, p := range []cata.Policy{cata.PolicyCATA, cata.PolicyCATARSU} {
			for s := range nseeds {
				out = append(out, cata.RunConfig{Workload: w, Policy: p, FastCores: 16,
					Seed: derive(c.seed, "hit", s), Scale: scale})
			}
		}
	}
	return out
}

// plan returns request k of client ci: three in eight carry a fresh
// seed (misses), the rest resubmit a member of the hit set, whose index
// it returns (-1 for a miss).
func plan(c config, hits []cata.RunConfig, ci, k int) (cata.RunConfig, int) {
	if m := k % 8; m != 0 && m != 3 && m != 5 {
		i := int(derive(c.seed, "pick", ci, k) % uint64(len(hits)))
		return hits[i], i
	}
	names := workloads.Names()
	p := cata.PolicyCATA
	if derive(c.seed, "miss.p", ci, k)%2 == 1 {
		p = cata.PolicyCATARSU
	}
	return cata.RunConfig{
		Workload:  names[derive(c.seed, "miss.w", ci, k)%uint64(len(names))],
		Policy:    p,
		FastCores: 16,
		Seed:      derive(c.seed, "miss", ci, k),
		Scale:     hits[0].Scale,
	}, -1
}

// request is one submit-and-wait round trip as the client saw it.
type request struct {
	cfg     cata.RunConfig
	hit     bool // planned as a cache hit
	latency time.Duration
	st      cata.JobStatus
	err     error
}

// roundTrip submits cfg and waits for the job to end.
func roundTrip(ctx context.Context, cl *cata.ServiceClient, tr *tracer, cfg cata.RunConfig, hit bool, req int64) request {
	kind := "miss"
	if hit {
		kind = "hit"
	}
	r := request{cfg: cfg, hit: hit}
	endReq := tr.start("client.request", kind, 0, req)
	t0 := time.Now()
	endSubmit := tr.start("server.submit", kind, 0, req)
	st, err := cl.SubmitRun(ctx, cfg)
	endSubmit()
	if err == nil {
		endWait := tr.start("client.wait", kind, 0, req)
		st, err = cl.Wait(ctx, st.ID)
		endWait()
	}
	r.latency = time.Since(t0)
	done := time.Now()
	endReq()
	r.st, r.err = st, err
	if err == nil {
		tr.add("jobs.queue", kind, 0, req, st.Submitted, st.Started)
		tr.add("jobs.run", kind, 0, req, st.Started, st.Finished)
		tr.add("server.result", kind, 0, req, st.Finished, done)
	}
	return r
}

// served returns the single outcome of a terminal run job, or nil.
func served(st cata.JobStatus) *cata.JobOutcome {
	if st.Result == nil || len(st.Result.Results) != 1 {
		return nil
	}
	return &st.Result.Results[0]
}

// checkRequest checks one round trip: the job succeeded, carries one
// result, and was served from the cache exactly when planned as a hit.
func checkRequest(t *tally, r request) *cata.Result {
	t.op(r.err)
	if r.err != nil {
		return nil
	}
	o := served(r.st)
	t.check(r.st.State == cata.JobSucceeded, "job %s ended %s: %s", r.st.ID, r.st.State, r.st.Error)
	if o == nil || o.Result == nil || o.Error != "" {
		t.check(false, "job %s has no result", r.st.ID)
		return nil
	}
	t.check(o.Cached == r.hit, "job %s: cached=%v, planned hit=%v", r.st.ID, o.Cached, r.hit)
	return o.Result
}

// prefill submits every hit-set configuration once, one client per CPU,
// and returns the results served, by hit-set index.
func prefill(t *tally, s *service, hits []cata.RunConfig) []*cata.Result {
	first := make([]*cata.Result, len(hits))
	var wg sync.WaitGroup
	nc := runtime.GOMAXPROCS(0)
	for ci := range nc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(hits); i += nc {
				r := roundTrip(context.Background(), s.client, nil, hits[i], false, 0)
				first[i] = checkRequest(t, r)
			}
		}()
	}
	wg.Wait()
	return first
}

func runService(c config, t *tally, tr *tracer) (outcome, error) {
	hits := hitSet(c)

	// Setup, five times: start a daemon on a fresh cache and fill the
	// cache with the hit set. The last daemon serves the timed phase.
	var setups []float64
	var svc *service
	var prefilled []*cata.Result
	for i := range setupRounds {
		t0 := time.Now()
		s, err := startService(c.tmp)
		if err != nil {
			return outcome{}, err
		}
		prefilled = prefill(t, s, hits)
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			if err := s.close(); err != nil {
				return outcome{}, err
			}
			continue
		}
		svc = s
	}
	defer func() {
		if err := svc.close(); err != nil {
			t.op(fmt.Errorf("closing catad: %w", err))
		}
	}()

	// Each client checks a request as soon as its round trip ends,
	// outside the latency it measures, and keeps only its latency and,
	// for the first misses, what the later cata.Run comparison needs.
	nc := runtime.GOMAXPROCS(0)
	type clientLog struct {
		lat    []float64
		tasks  int64
		misses []request
	}
	logs := make([]clientLog, nc)
	var before counters
	if tr != nil {
		before = scrape()
	}
	runtime.GC()
	a0 := mallocs()
	sampler := startHeapSampler(2 * time.Millisecond)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range nc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			lg := &logs[ci]
			for k := 0; time.Since(start) < c.budget; k++ {
				cfg, hi := plan(c, hits, ci, k)
				hit := hi >= 0
				r := roundTrip(ctx, svc.client, tr, cfg, hit, int64(ci)<<32|int64(k+1))
				lg.lat = append(lg.lat, ms(r.latency))
				if c.corrupt && ci == 0 && k == 0 {
					if o := served(r.st); o != nil && o.Result != nil {
						o.Result.Makespan++
					}
				}
				res := checkRequest(t, r)
				if res == nil {
					continue
				}
				lg.tasks += res.TasksRun
				if hit {
					want := prefilled[hi]
					t.check(want != nil && *res == *want, "hit %s differs from the cached result", r.st.ID)
				} else if len(lg.misses) < 4 {
					lg.misses = append(lg.misses, r)
				}
			}
		}()
	}
	// The heap figure is the median of the peaks of half-second windows.
	clientsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(clientsDone)
	}()
	var heaps []float64
	tick := time.NewTicker(500 * time.Millisecond)
	for waiting := true; waiting; {
		select {
		case <-tick.C:
			heaps = append(heaps, mb(sampler.take()))
		case <-clientsDone:
			waiting = false
		}
	}
	tick.Stop()
	elapsed := time.Since(start)
	if len(heaps) == 0 {
		heaps = append(heaps, mb(sampler.take()))
	}
	sampler.Stop()
	a1 := mallocs()
	var after counters
	if tr != nil {
		after = scrape()
	}

	// A sample of misses must equal a local cata.Run of the same
	// configuration.
	// Latency quantiles are taken per window of 1000 consecutive
	// requests of one client, then the median over windows.
	var nreq int
	var p50s, p99s []float64
	var tasks int64
	for _, lg := range logs {
		nreq += len(lg.lat)
		p50s = append(p50s, windowQuantiles(lg.lat, 1000, 0.50)...)
		p99s = append(p99s, windowQuantiles(lg.lat, 1000, 0.99)...)
		tasks += lg.tasks
		for _, r := range lg.misses {
			local, err := cata.Run(r.cfg)
			t.op(err)
			t.check(err == nil && local == *served(r.st).Result, "miss %s differs from cata.Run", r.st.ID)
		}
	}
	// The prefilled results themselves are checked against cata.Run,
	// and their FIFO baselines normalize the simulated figures.
	var speedup, edp, resp []float64
	for i, cfg := range hits {
		got := prefilled[i]
		if got == nil {
			continue
		}
		local, err := cata.Run(cfg)
		t.op(err)
		t.check(err == nil && local == *got, "served %s/%v differs from cata.Run", cfg.Workload, cfg.Policy)
		fifo := cfg
		fifo.Policy = cata.PolicyFIFO
		base, err := cata.Run(fifo)
		t.op(err)
		if err != nil || got.Makespan <= 0 || base.EDP <= 0 {
			continue
		}
		speedup = append(speedup, float64(base.Makespan)/float64(got.Makespan))
		edp = append(edp, got.EDP/base.EDP)
		resp = append(resp, ms(got.Makespan))
	}
	t.check(len(speedup) == len(hits), "%d of %d hit-set results usable", len(speedup), len(hits))

	e := figures{}
	e.set("setup_s", median(setups), "s")
	e.set("sim_tasks_per_s", float64(tasks)/elapsed.Seconds(), "1/s")
	e.set("allocs_per_task", float64(a1-a0)/float64(max(tasks, 1)), "count")
	e.set("heap_peak_mb", median(heaps), "MB")
	e.set("req_per_s", float64(nreq)/elapsed.Seconds(), "1/s")
	e.set("req_p50_ms", median(p50s), "ms")
	e.set("req_p99_ms", median(p99s), "ms")
	e.set("sim_speedup_geomean", geomean(speedup), "x")
	e.set("sim_norm_edp_geomean", geomean(edp), "x")
	e.set("sim_resp_mean_ms", mean(resp), "ms")

	l := figures{}
	if tr != nil {
		wait := tr.durs("jobs.queue", "")
		l.set("jobs.queue_wait_p50_ms", quantile(wait, 0.50), "ms")
		l.set("jobs.queue_wait_p99_ms", quantile(wait, 0.99), "ms")
		l.set("jobs.run_ms.hit", mean(tr.durs("jobs.run", "hit")), "ms")
		l.set("jobs.run_ms.miss", mean(tr.durs("jobs.run", "miss")), "ms")
		l.set("server.submit_ms", mean(tr.durs("server.submit", "")), "ms")
		l.set("server.result_ms", mean(tr.durs("server.result", "")), "ms")
		h := delta(before, after, "cata_cache_hits_total")
		m := delta(before, after, "cata_cache_misses_total")
		l.set("batch.cache_hit_frac", h/max(h+m, 1), "ratio")
	}
	return outcome{e2e: e, layer: l}, nil
}

// serviceLayers times the build of the programs the service runs and
// their simulation under each policy; the simulation-layer figures come
// from the CATA and CATA+RSU runs, the ones catad executes on a miss.
func serviceLayers(c config, t *tally, tr *tracer) (figures, error) {
	hits := hitSet(c)
	var progs []progSpec
	seen := map[progSpec]bool{}
	for _, h := range hits {
		ps := progSpec{h.Workload, h.Seed, h.Scale}
		if !seen[ps] {
			seen[ps] = true
			progs = append(progs, ps)
		}
	}
	runs, err := buildAndSimulate(t, tr, progs, paperPolicies, []int{16}, 32)
	if err != nil {
		return nil, err
	}
	var served []simRun
	for _, r := range runs {
		if p := r.m.Spec.Policy; p == "CATA" || p == "CATA+RSU" {
			served = append(served, r)
		}
	}
	f := buildFigures(tr)
	f.merge(simFigures(served, int64(len(served))))
	return f, nil
}
