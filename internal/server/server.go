// Package server implements catad's HTTP/JSON API: simulation and
// sweep submission (POST /v1/runs, POST /v1/sweeps — the request bodies
// are the public API's RunConfig and MatrixConfig JSON forms), job
// introspection and cancellation (/v1/jobs), SSE progress streaming
// (/v1/jobs/{id}/events), flight-recording retrieval
// (/v1/jobs/{id}/trace — the Chrome trace JSON captured for jobs
// submitted with "trace": true), registry introspection (/v1/policies,
// /v1/workloads), /healthz, and the Prometheus scrape endpoint
// /metrics (queue depth, jobs by state, cache hit rate, engine
// events/sec, acceleration decisions). Jobs execute on a bounded
// internal/jobs.Manager; each job runs through the public batch engine
// (cata.RunBatch) against a shared content-addressed result cache, so
// resubmitting an identical spec is served without re-simulation.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"

	"cata"
	"cata/internal/jobs"
	"cata/internal/metrics"
	"cata/internal/spec"
	"cata/internal/workloads"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers bounds concurrently executing jobs (default 2).
	Workers int
	// QueueDepth bounds the FIFO admission queue; submissions beyond it
	// are shed with 429 (default 16).
	QueueDepth int
	// SimParallelism bounds each job's concurrent simulations (default
	// GOMAXPROCS/Workers, at least 1), keeping the daemon's total CPU
	// use near GOMAXPROCS when all workers are busy.
	SimParallelism int
	// RetainJobs bounds how many terminal jobs (with their event logs
	// and result payloads) stay queryable; the oldest are evicted
	// beyond it, keeping a long-running daemon's memory bounded
	// (default 512). Queued and running jobs are never evicted.
	RetainJobs int
	// CachePath, when non-empty, is the shared content-addressed JSONL
	// result cache: every completed run persists to it, and identical
	// resubmissions are served from it without re-simulating.
	CachePath string
	// Logger, when non-nil, receives structured request and job
	// lifecycle records: one per inbound request (req_id, method,
	// path) and one per job transition (job_id correlated back to the
	// admitting req_id, so a request can be followed from admission
	// through run to its terminal state). Nil discards everything.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.SimParallelism <= 0 {
		c.SimParallelism = max(1, runtime.GOMAXPROCS(0)/c.Workers)
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the catad daemon: an HTTP handler over a bounded job
// manager and one shared result cache.
type Server struct {
	cfg    Config
	mgr    *jobs.Manager
	mux    *http.ServeMux
	cache  *cata.BatchCache // nil when caching is disabled
	reqSeq atomic.Uint64    // request-ID counter for log correlation
}

// New builds a server, opens its result cache, and starts its worker
// pool. The cache stays open for the server's lifetime — every job
// reads and appends through the one handle, so concurrent jobs see
// each other's completed results without re-parsing the file — and is
// released by Close.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		mgr: jobs.New(cfg.Workers, cfg.QueueDepth, cfg.RetainJobs),
		mux: http.NewServeMux(),
	}
	if cfg.CachePath != "" {
		c, err := cata.OpenBatchCache(cfg.CachePath)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	// The whole process's telemetry — job manager, batch cache,
	// simulation layer — in Prometheus text format.
	s.mux.Handle("GET /metrics", metrics.Handler())
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	return s, nil
}

// Close releases the shared result cache. Call after Drain.
func (s *Server) Close() error {
	if s.cache == nil {
		return nil
	}
	return s.cache.Close()
}

// reqIDKey carries the per-request correlation ID through a request's
// context.
type reqIDKey struct{}

// requestID extracts the correlation ID Handler attached, or "".
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// Handler returns the daemon's HTTP handler. Every request is tagged
// with a req_id and logged; handlers thread the id into job lifecycle
// records so one grep follows a submission end to end.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		s.cfg.Logger.Info("request", "req_id", id, "method", r.Method, "path", r.URL.Path)
		s.mux.ServeHTTP(w, r)
	})
}

// Drain gracefully shuts the job manager down: admission stops (new
// submissions get 503), queued and running jobs finish, and past ctx's
// deadline everything still in flight is canceled. Call before shutting
// the HTTP listener down so in-flight SSE streams end naturally.
func (s *Server) Drain(ctx context.Context) error {
	s.cfg.Logger.Info("draining jobs")
	err := s.mgr.Drain(ctx)
	queued, running, terminal := s.mgr.Counts()
	s.cfg.Logger.Info("drained", "finished", terminal, "queued", queued, "running", running)
	return err
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a {"error": ...} body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeSpecError writes a 400 for a config rejected at admission. When
// the cause is a bad spec, the body names the offending component —
// {"error": ..., <kind>: name, "param": key}, where kind is "workload",
// "policy" or "arrivals" — so clients can point at the exact field;
// other errors keep the plain {"error": ...} shape.
func writeSpecError(w http.ResponseWriter, context string, err error) {
	body := map[string]string{"error": fmt.Sprintf("%s: %v", context, err)}
	var se *spec.Error
	if errors.As(err, &se) {
		if se.Kind != "" && se.Name != "" {
			body[se.Kind] = se.Name
		}
		if se.Key != "" {
			body["param"] = se.Key
		}
	}
	writeJSON(w, http.StatusBadRequest, body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	queued, running, terminal := s.mgr.Counts()
	h := cata.ServiceHealth{
		Status: "ok",
		Queued: queued, Running: running, Jobs: queued + running + terminal,
		Workers: s.cfg.Workers, QueueDepth: s.cfg.QueueDepth,
	}
	status := http.StatusOK
	if s.mgr.Draining() {
		// Fail readiness checks during shutdown so load balancers stop
		// routing new submissions here while SSE streams drain.
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, cata.PolicyDocs())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, cata.Workloads())
}

// decodeBody decodes a bounded JSON request body into v, rejecting
// unknown fields so typos in specs fail loudly instead of silently
// running defaults.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkConfig resolves a config's three specs — workload, policy and
// arrivals — against their registries, checking names, parameter keys,
// kinds and bounds without building anything or reading files. The
// empty policy is the FIFO default; empty arrivals mean a closed run.
func checkConfig(c cata.RunConfig) error {
	if c.Workload == "" {
		return errors.New("workload required")
	}
	if _, err := workloads.Canonicalize(c.Workload); err != nil {
		return err
	}
	if c.Policy != "" {
		if err := cata.ValidatePolicy(string(c.Policy)); err != nil {
			return err
		}
	}
	if c.Arrivals != "" {
		return cata.ValidateArrivals(c.Arrivals)
	}
	return nil
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var cfg cata.RunConfig
	if err := decodeBody(w, r, &cfg); err != nil {
		writeSpecError(w, "decoding run config", err)
		return
	}
	if err := checkConfig(cfg); err != nil {
		writeSpecError(w, "validating run config", err)
		return
	}
	label := fmt.Sprintf("%s/%v/fast=%d", cfg.Workload, cfg.Policy, cfg.FastCores)
	s.submit(w, r, "run", label, []cata.RunConfig{cfg})
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var cfg cata.MatrixConfig
	if err := decodeBody(w, r, &cfg); err != nil {
		writeSpecError(w, "decoding sweep config", err)
		return
	}
	// MatrixConfig.Configs owns the defaults and the expansion order,
	// so the daemon can never drift from the in-process API.
	cfgs := cfg.Configs()
	for _, c := range cfgs {
		if err := checkConfig(c); err != nil {
			writeSpecError(w, "validating sweep config", err)
			return
		}
	}
	s.submit(w, r, "sweep", fmt.Sprintf("%d runs", len(cfgs)), cfgs)
}

// submit admits a batch of configs as one job and answers 202 with its
// status, 429 when the queue sheds it, or 503 while draining.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind, label string, cfgs []cata.RunConfig) {
	j, err := s.mgr.Submit(kind, label, s.batchFn(cfgs))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full (depth %d); retry later", s.cfg.QueueDepth)
		return
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	reqID := requestID(r.Context())
	s.cfg.Logger.Info("job admitted",
		"req_id", reqID, "job_id", j.ID(), "kind", kind, "label", label)
	go s.watchJob(j, reqID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// watchJob follows a job's event log and logs every state transition
// with the admitting request's correlation ID. The subscription closes
// itself once the job reaches a terminal state, so the goroutine's
// lifetime is bounded by the job's.
func (s *Server) watchJob(j *jobs.Job, reqID string) {
	for e := range j.Events(context.Background()) {
		if e.Type != jobs.EventState {
			continue
		}
		attrs := []any{"req_id", reqID, "job_id", j.ID(), "state", string(e.State)}
		if e.Error != "" {
			attrs = append(attrs, "error", e.Error)
			s.cfg.Logger.Warn("job state", attrs...)
			continue
		}
		s.cfg.Logger.Info("job state", attrs...)
	}
}

// batchFn builds the job body: run the configs through the public batch
// engine against the shared cache, streaming progress into the job's
// event log and recording a ServiceResult payload (also on
// cancellation or failure, so partial results stay observable). A job
// whose every config failed ends failed, naming the first failure; one
// with at least one success succeeds, with Failed counting the rest. A
// config asking for a trace gets a capture buffer attached — the wire
// field is a bool, the engine wants a writer — and the recording is
// retained with the job as its "trace" artifact. One trace per job:
// the first requesting config wins (sweeps wanting more should submit
// runs).
func (s *Server) batchFn(cfgs []cata.RunConfig) jobs.Fn {
	var traceBuf *bytes.Buffer
	for i := range cfgs {
		if cfgs[i].Trace && cfgs[i].TraceTo == nil {
			traceBuf = new(bytes.Buffer)
			cfgs[i].TraceTo = traceBuf
			break
		}
	}
	return func(ctx context.Context, publish func(jobs.Event)) (json.RawMessage, error) {
		opts := cata.BatchOptions{
			Parallelism: s.cfg.SimParallelism,
			Cache:       s.cache,
			Resume:      s.cache != nil,
			OnProgress: func(p cata.BatchProgress) {
				publish(jobs.Event{Type: jobs.EventProgress, Progress: &jobs.Progress{
					Done: p.Done, Total: p.Total, Cached: p.Cached, Failed: p.Failed,
					Spec:      p.Spec,
					ElapsedMS: p.Elapsed.Milliseconds(),
					ETAMS:     p.ETA.Milliseconds(),
					Note:      p.Note,
				}})
			},
		}
		rs, err := cata.RunBatch(ctx, cfgs, opts)
		if traceBuf != nil && traceBuf.Len() > 0 {
			jobs.StoreArtifact(ctx, "trace", traceBuf.Bytes())
		}
		payload := cata.ServiceResult{Results: make([]cata.JobOutcome, len(rs))}
		for i, r := range rs {
			o := cata.JobOutcome{Config: r.Config, Cached: r.Cached}
			if r.Err != nil {
				o.Error = r.Err.Error()
				payload.Failed++
			} else {
				res := r.Result
				o.Result = &res
			}
			if r.Cached {
				payload.Cached++
			}
			payload.Results[i] = o
		}
		raw, mErr := json.Marshal(payload)
		if mErr != nil {
			return nil, mErr
		}
		if err == nil && len(rs) > 0 && payload.Failed == len(rs) {
			err = fmt.Errorf("all %d run(s) failed; first: %s", len(rs), payload.Results[0].Error)
		}
		return raw, err
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	js := s.mgr.Jobs()
	out := make([]jobs.Status[json.RawMessage], len(js))
	for i, j := range js {
		// The listing stays light: no result payloads. Fetch one job
		// for its results.
		out[i] = j.Status()
		out[i].Result = nil
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.cfg.Logger.Info("job cancel requested",
		"req_id", requestID(r.Context()), "job_id", j.ID())
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for e := range j.Events(r.Context()) {
		data, err := json.Marshal(e)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		fl.Flush()
	}
}

// handleJobTrace serves the flight recording retained with a traced
// job as a Chrome trace JSON document. 404s distinguish an unknown job
// from a known job that recorded no trace (not requested, still
// running, or failed before the simulation produced one).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	data, ok := j.Artifact("trace")
	if !ok {
		writeError(w, http.StatusNotFound,
			"no trace recorded for job %q (submit with \"trace\": true and wait for it to finish)", j.ID())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
