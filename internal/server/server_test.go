package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cata"
	"cata/internal/jobs"
	"cata/internal/server"
)

// newTestService boots a daemon on an httptest listener and returns a
// typed client for it. Cleanup cancels whatever is still in flight.
func newTestService(t *testing.T, cfg server.Config) (*server.Server, *cata.ServiceClient) {
	t.Helper()
	if cfg.CachePath == "" {
		cfg.CachePath = filepath.Join(t.TempDir(), "cache.jsonl")
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Drain(ctx) // deadline force-cancels leftovers
		_ = srv.Close()
	})
	return srv, cata.NewServiceClient(ts.URL, nil)
}

// seeds returns n distinct seeds, the cheap way to size a sweep.
func seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// blockerSweep is a sweep big enough (~1500 tiny runs at parallelism 1)
// to keep a worker busy while the test issues a few local requests.
func blockerSweep() cata.MatrixConfig {
	return cata.MatrixConfig{
		Workloads: []string{"swaptions"},
		Policies:  []cata.Policy{cata.PolicyCATA},
		FastCores: []int{8},
		Seeds:     seeds(1500),
		Scale:     0.05,
	}
}

// waitTerminal polls until the job leaves the running states.
func waitTerminal(t *testing.T, c *cata.ServiceClient, id string) cata.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reaches exactly want.
func waitState(t *testing.T, c *cata.ServiceClient, id string, want cata.JobState) cata.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIntrospectionEndpoints: /healthz, /v1/policies and /v1/workloads
// reflect the embedded registries; bad requests get typed 4xx answers.
func TestIntrospectionEndpoints(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	if h.Workers != 1 || h.QueueDepth != 4 {
		t.Fatalf("health sizing = %+v", h)
	}

	ps, err := c.Policies(ctx)
	if err != nil || len(ps) != len(cata.PolicyDocs()) {
		t.Fatalf("policies = %d entries, %v", len(ps), err)
	}
	if ps[0].Label != "FIFO" || ps[0].Policy != cata.PolicyFIFO {
		t.Fatalf("policies[0] = %+v", ps[0])
	}

	ws, err := c.Workloads(ctx)
	if err != nil || len(ws) != len(cata.Workloads()) {
		t.Fatalf("workloads = %d entries, %v", len(ws), err)
	}

	// Unknown job: 404.
	var se *cata.ServiceError
	if _, err := c.Job(ctx, "nope"); !errors.As(err, &se) || se.StatusCode != 404 {
		t.Fatalf("unknown job err = %v", err)
	}
	if _, err := c.Cancel(ctx, "nope"); !errors.As(err, &se) || se.StatusCode != 404 {
		t.Fatalf("cancel unknown job err = %v", err)
	}
	// Unknown workload: 400 before admission.
	if _, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "nope"}); !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("unknown workload err = %v", err)
	}
	// Missing workload: 400.
	if _, err := c.SubmitRun(ctx, cata.RunConfig{}); !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("missing workload err = %v", err)
	}
}

// TestQueueFullShedding: with the single worker busy and the depth-1
// queue occupied, the next submission is shed with 429 and the daemon
// stays healthy; after the blocker is canceled, admission reopens.
func TestQueueFullShedding(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 1, SimParallelism: 1})
	ctx := context.Background()

	blocker, err := c.SubmitSweep(ctx, blockerSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, blocker.ID, cata.JobRunning)

	queued, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != cata.JobQueued {
		t.Fatalf("second job state = %s, want queued", queued.State)
	}

	_, err = c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05})
	var se *cata.ServiceError
	if !errors.As(err, &se) || se.StatusCode != 429 {
		t.Fatalf("overflow submission err = %v, want 429", err)
	}

	// Shed requests leave no job behind.
	js, err := c.Jobs(ctx)
	if err != nil || len(js) != 2 {
		t.Fatalf("jobs = %d, %v; want 2", len(js), err)
	}

	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c, blocker.ID)
	waitTerminal(t, c, queued.ID) // queue slot freed, job ran
	if _, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05}); err != nil {
		t.Fatalf("admission after shed: %v", err)
	}
}

// TestCancelBeforeStart: canceling a queued job via the API moves it
// straight to canceled; it never runs and its event log shows only
// queued → canceled.
func TestCancelBeforeStart(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4, SimParallelism: 1})
	ctx := context.Background()

	blocker, err := c.SubmitSweep(ctx, blockerSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, blocker.ID, cata.JobRunning)

	victim, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != cata.JobCanceled {
		t.Fatalf("victim state after cancel = %s", st.State)
	}
	if !st.Started.IsZero() {
		t.Fatal("canceled-before-start job has a start time")
	}

	var events []cata.JobEvent
	if err := c.Events(ctx, victim.ID, func(e cata.JobEvent) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].State != cata.JobQueued || events[1].State != cata.JobCanceled {
		t.Fatalf("event log = %+v", events)
	}

	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c, blocker.ID)
}

// TestDuplicateRunServedFromCache: resubmitting an identical spec is
// answered from the shared result cache — flagged cached, bit-identical
// result, no re-simulation.
func TestDuplicateRunServedFromCache(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	cfg := cata.RunConfig{Workload: "dedup", Policy: cata.PolicyCATA, FastCores: 8, Seed: 77, Scale: 0.05}

	first, err := c.SubmitRun(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := c.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != cata.JobSucceeded || st1.Result == nil || len(st1.Result.Results) != 1 {
		t.Fatalf("first job = %+v", st1)
	}
	if st1.Result.Results[0].Cached {
		t.Fatal("first execution claims to be cached")
	}

	second, err := c.SubmitRun(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != cata.JobSucceeded || st2.Result == nil || st2.Result.Cached != 1 {
		t.Fatalf("second job = %+v", st2)
	}
	o1, o2 := st1.Result.Results[0], st2.Result.Results[0]
	if !o2.Cached {
		t.Fatal("resubmission was re-simulated")
	}
	if o1.Result == nil || o2.Result == nil || *o1.Result != *o2.Result {
		t.Fatalf("cached result drifted:\nfirst:  %+v\nsecond: %+v", o1.Result, o2.Result)
	}
}

// TestStateParity: the public wire states and the jobs package states
// are the same strings — the contract that lets the client decode the
// daemon's payloads.
func TestStateParity(t *testing.T) {
	pairs := []struct {
		wire cata.JobState
		impl jobs.State
	}{
		{cata.JobQueued, jobs.Queued},
		{cata.JobRunning, jobs.Running},
		{cata.JobSucceeded, jobs.Succeeded},
		{cata.JobFailed, jobs.Failed},
		{cata.JobCanceled, jobs.Canceled},
	}
	for _, p := range pairs {
		if string(p.wire) != string(p.impl) {
			t.Errorf("state drift: %q vs %q", p.wire, p.impl)
		}
	}
	if !cata.JobSucceeded.Terminal() || cata.JobRunning.Terminal() {
		t.Fatal("JobState.Terminal drifted")
	}
}

// TestFailedRunReported: a job whose every config fails ends failed,
// its error naming the first failure, while a sweep with at least one
// success stays succeeded and counts its failures. Either way the
// per-run outcomes carry the causes. (Admission resolves specs but
// reads no files, so a missing trace file only fails at build time.)
func TestFailedRunReported(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	missing := "trace:file=" + filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		name       string
		submit     func() (cata.JobStatus, error)
		wantState  cata.JobState
		wantFailed int
	}{
		{"lone failed run", func() (cata.JobStatus, error) {
			return c.SubmitRun(ctx, cata.RunConfig{Workload: missing})
		}, cata.JobFailed, 1},
		{"mixed sweep", func() (cata.JobStatus, error) {
			return c.SubmitSweep(ctx, cata.MatrixConfig{
				Workloads: []string{missing, "swaptions"}, FastCores: []int{2},
				Cores: 4, Seeds: []uint64{1}, Scale: 0.05,
			})
		}, cata.JobSucceeded, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.submit()
			if err != nil {
				t.Fatal(err)
			}
			final := waitTerminal(t, c, st.ID)
			if final.State != tc.wantState {
				t.Fatalf("job state = %s (error %q), want %s", final.State, final.Error, tc.wantState)
			}
			r := final.Result
			if r == nil || r.Failed != tc.wantFailed || r.Results[0].Error == "" {
				t.Fatalf("result = %+v, want %d failed outcome(s), the first with its cause", r, tc.wantFailed)
			}
			if tc.wantState == cata.JobFailed && !strings.Contains(final.Error, r.Results[0].Error) {
				t.Fatalf("job error %q does not name the first failure %q", final.Error, r.Results[0].Error)
			}
			if tc.wantState == cata.JobSucceeded && final.Error != "" {
				t.Fatalf("succeeded job carries error %q", final.Error)
			}
		})
	}
}

// scrapeMetrics fetches /metrics and parses every sample line into a
// map keyed by the full sample name (labels included).
func scrapeMetrics(t *testing.T, c *cata.ServiceClient) map[string]float64 {
	t.Helper()
	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint: /metrics serves parseable Prometheus text that
// reflects the work the daemon actually did — a completed run moves the
// job, cache, and simulator counters. Metrics are process-global, so
// the assertions are on deltas across this test's own traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 8})
	ctx := context.Background()
	before := scrapeMetrics(t, c)

	cfg := cata.RunConfig{Workload: "swaptions", Policy: cata.PolicyCATA, FastCores: 8, Seed: 11, Scale: 0.05}
	for i := 0; i < 2; i++ { // second submission is the cache hit
		st, err := c.SubmitRun(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, c, st.ID); final.State != cata.JobSucceeded {
			t.Fatalf("job %d state = %s", i, final.State)
		}
	}

	after := scrapeMetrics(t, c)
	delta := func(name string) float64 { return after[name] - before[name] }
	if d := delta(`cata_jobs_completed_total{state="succeeded"}`); d < 2 {
		t.Errorf("succeeded-jobs delta = %v, want >= 2", d)
	}
	if d := delta("cata_jobs_submitted_total"); d < 2 {
		t.Errorf("submitted-jobs delta = %v, want >= 2", d)
	}
	if d := delta("cata_cache_misses_total"); d < 1 {
		t.Errorf("cache-miss delta = %v, want >= 1", d)
	}
	if d := delta("cata_cache_hits_total"); d < 1 {
		t.Errorf("cache-hit delta = %v, want >= 1", d)
	}
	if d := delta("cata_sim_runs_total"); d < 1 {
		t.Errorf("sim-runs delta = %v, want >= 1", d)
	}
	if d := delta("cata_accel_granted_total"); d < 1 {
		t.Errorf("accel-granted delta = %v, want >= 1 (CATA run must accelerate)", d)
	}
	if d := delta(`cata_job_duration_seconds_count`); d < 2 {
		t.Errorf("job-duration observations delta = %v, want >= 2", d)
	}
	// Presence-only: gauges and derived rates whose values depend on
	// timing, not on this test's traffic.
	for _, name := range []string{
		"cata_jobs_queue_depth",
		"cata_jobs_running",
		"cata_sim_events_per_sec",
		"cata_power_budget_utilization",
	} {
		if _, ok := after[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
}

// TestPolicySpecValidation: bad policy specs are rejected at admission
// with a structured 400 naming the offending component, and a
// registered policy is fully usable through the daemon by its spec
// string alone — listed with its typed params, and runnable.
func TestPolicySpecValidation(t *testing.T) {
	cfg := server.Config{Workers: 1, QueueDepth: 4,
		CachePath: filepath.Join(t.TempDir(), "cache.jsonl")}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = srv.Close()
	})
	c := cata.NewServiceClient(ts.URL, nil)
	ctx := context.Background()

	// /v1/policies exposes the registered AMTHA entry with its typed
	// parameter docs — the registry is self-describing over the wire.
	ps, err := c.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var amtha *cata.PolicyInfo
	for i := range ps {
		if ps[i].Label == "AMTHA" {
			amtha = &ps[i]
		}
	}
	if amtha == nil {
		t.Fatalf("/v1/policies does not list AMTHA: %+v", ps)
	}
	if !amtha.Extension || len(amtha.Params) != 1 {
		t.Fatalf("AMTHA entry = %+v", amtha)
	}
	if p := amtha.Params[0]; p.Key != "tiebreak" || p.Kind != "enum" ||
		p.Default != "index" || len(p.Choices) != 3 {
		t.Fatalf("AMTHA param doc = %+v", p)
	}

	// post400 submits raw JSON and decodes the structured error body.
	post400 := func(path, body string) map[string]string {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("POST %s %s: status %d, want 400", path, body, resp.StatusCode)
		}
		var got map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Every spec kind — workload, policy, arrivals — is resolved at
	// admission; the body names the kind, the entry and the offending
	// key ("" when the name itself is at fault).
	for _, tc := range []struct {
		path, body      string
		kind, name, key string
		errorMentions   string
	}{
		{"/v1/runs", `{"workload":"dedup","policy":"NoSuchPolicy"}`,
			"policy", "NoSuchPolicy", "", "unknown policy"},
		{"/v1/runs", `{"workload":"dedup","policy":"AMTHA:tiebreak=bogus"}`,
			"policy", "AMTHA", "tiebreak", "tiebreak"},
		// Out-of-bounds float deep inside a sweep config.
		{"/v1/sweeps", `{"workloads":["dedup"],"policies":["FIFO","CATS+BL:theta=2"]}`,
			"policy", "CATS+BL", "theta", "theta"},
		{"/v1/runs", `{"workload":"dedup","policy":"FIFO:hint=1"}`,
			"policy", "FIFO", "hint", "unknown parameter"},
		{"/v1/runs", `{"workload":"nope"}`,
			"workload", "nope", "", "unknown workload"},
		{"/v1/runs", `{"workload":"layered:width=-5"}`,
			"workload", "layered", "width", "must be >= 1"},
		{"/v1/sweeps", `{"workloads":["dedup","Chain:scale=0"],"policies":["FIFO"]}`,
			"workload", "chain", "scale", "scale"},
		{"/v1/runs", `{"workload":"dedup","arrivals":"poisson:lambda=1,jobs=1e3"}`,
			"arrivals", "poisson", "jobs", "not an integer"},
		{"/v1/runs", `{"workload":"dedup","arrivals":"burst:rate=9"}`,
			"arrivals", "burst", "", "unknown arrivals"},
	} {
		got := post400(tc.path, tc.body)
		if got[tc.kind] != tc.name || got["param"] != tc.key || !strings.Contains(got["error"], tc.errorMentions) {
			t.Errorf("POST %s %s: body = %v, want %s=%q param=%q", tc.path, tc.body, got, tc.kind, tc.name, tc.key)
		}
	}

	// And the happy path: a parameterized spec string is accepted,
	// simulated, and succeeds.
	job, err := c.SubmitRun(ctx, cata.RunConfig{
		Workload: "dedup", Policy: cata.Policy("AMTHA:tiebreak=spread"),
		FastCores: 4, Scale: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != cata.JobSucceeded || st.Result == nil || len(st.Result.Results) != 1 {
		t.Fatalf("AMTHA job = %+v", st)
	}
}

// TestFastCoresOutOfRangeRejected: a fast-core budget outside
// [0, cores], or a negative core count, is a 400 naming the field at
// admission — for a single run and for one expanded config of a sweep —
// never a queued job whose worker panics and takes the daemon down.
func TestFastCoresOutOfRangeRejected(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, QueueDepth: 4,
		CachePath: filepath.Join(t.TempDir(), "cache.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = srv.Close()
	})
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/runs", `{"workload":"dedup","policy":"FIFO","fast_cores":40}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","policy":"CATA","fast_cores":-1}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","policy":"CATA+RSU-3L","fast_cores":9,"cores":8}`, "fast_cores"},
		{"/v1/sweeps", `{"workloads":["dedup"],"policies":["TurboMode"],"fast_cores":[8,40]}`, "fast_cores"},
		{"/v1/runs", `{"workload":"dedup","cores":-4}`, "cores"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 || got["field"] != tc.field || !strings.Contains(got["error"], tc.field) {
			t.Errorf("POST %s %s: status %d, body %v; want 400 naming %s", tc.path, tc.body, resp.StatusCode, got, tc.field)
		}
	}
	h, err := cata.NewServiceClient(ts.URL, nil).Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("health after rejected budgets = %+v, %v", h, err)
	}
}
