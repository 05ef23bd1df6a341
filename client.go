package cata

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"cata/internal/jobs"
)

// JobState is a catad job's lifecycle stage on the wire.
type JobState = jobs.State

// The job lifecycle: JobQueued → JobRunning → one of the three terminal
// states. Canceling a queued job moves it straight to JobCanceled.
const (
	// JobQueued: admitted to the daemon's FIFO queue, waiting for a worker.
	JobQueued = jobs.Queued
	// JobRunning: executing on one of the daemon's workers.
	JobRunning = jobs.Running
	// JobSucceeded: finished without error.
	JobSucceeded = jobs.Succeeded
	// JobFailed: finished with an error other than cancellation.
	JobFailed = jobs.Failed
	// JobCanceled: canceled before or during execution.
	JobCanceled = jobs.Canceled
)

// JobStatus is a point-in-time snapshot of a catad job, returned by the
// job endpoints and ServiceClient. Result holds the job's outcomes once
// terminal; a canceled job carries the partial results gathered before
// the cancel.
type JobStatus = jobs.Status[*ServiceResult]

// ServiceResult is a terminal job's payload: one outcome per submitted
// configuration, in input order, plus summary counters.
type ServiceResult struct {
	// Results holds one outcome per configuration, in input order.
	Results []JobOutcome `json:"results"`
	// Cached counts outcomes served from the daemon's result cache.
	Cached int `json:"cached"`
	// Failed counts outcomes that carry an error.
	Failed int `json:"failed"`
}

// JobOutcome is one configuration's outcome within a catad job.
type JobOutcome struct {
	// Config is the configuration that ran.
	Config RunConfig `json:"config"`
	// Cached reports that Result was served from the daemon's cache
	// without re-simulating.
	Cached bool `json:"cached,omitempty"`
	// Error is this run's own failure, if any (a failing run never
	// aborts the job).
	Error string `json:"error,omitempty"`
	// Result is the simulation outcome when Error is empty.
	Result *Result `json:"result,omitempty"`
}

// JobProgress is a structured progress snapshot within a JobEvent:
// runs done of the total, cache hits and failures so far, the run that
// just completed with its wall time, an ETA in milliseconds, and the
// engine's annotation.
type JobProgress = jobs.Progress

// JobEvent is one entry of a job's ordered event log, as streamed by
// GET /v1/jobs/{id}/events (SSE): a state transition or a progress
// update.
type JobEvent = jobs.Event

// ServiceHealth is the payload of catad's GET /healthz.
type ServiceHealth struct {
	// Status is "ok", or "draining" during graceful shutdown.
	Status string `json:"status"`
	// Queued counts admitted jobs waiting for a worker.
	Queued int `json:"queued"`
	// Running counts jobs currently executing on workers.
	Running int `json:"running"`
	// Jobs counts the jobs the daemon currently retains — queued,
	// running, and up to its retention limit of terminal jobs (older
	// terminal jobs are evicted, so this is not a lifetime total).
	Jobs int `json:"jobs"`
	// Workers is the daemon's worker-pool size.
	Workers int `json:"workers"`
	// QueueDepth is the admission queue's capacity.
	QueueDepth int `json:"queue_depth"`
}

// ServiceError is a non-2xx response from catad, carrying the HTTP
// status code (429 means the admission queue shed the request; retry
// later) and the daemon's error message.
type ServiceError struct {
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// Message is the daemon's error description.
	Message string
}

// Error implements the error interface.
func (e *ServiceError) Error() string {
	return fmt.Sprintf("catad: %d: %s", e.StatusCode, e.Message)
}

// ServiceClient is a typed HTTP client for a catad daemon. The zero
// value is not usable; construct with NewServiceClient.
type ServiceClient struct {
	base string
	hc   *http.Client
}

// NewServiceClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil to use a default
// client without timeouts (timeouts come from the per-call contexts;
// SSE streams are long-lived by design).
func NewServiceClient(base string, httpClient *http.Client) *ServiceClient {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &ServiceClient{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// do issues one JSON request and decodes the response into out (unless
// nil). Non-2xx responses come back as *ServiceError.
func (c *ServiceClient) do(ctx context.Context, method, path string, body, out any) error {
	var rdr *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("catad: encoding request: %w", err)
		}
		rdr = bytes.NewReader(b)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		if out != nil {
			// Some endpoints answer non-2xx with a typed body (e.g.
			// /healthz says 503 + {"status":"draining"}); surface it
			// alongside the error when it decodes.
			_ = json.Unmarshal(raw, out)
		}
		return &ServiceError{StatusCode: resp.StatusCode, Message: e.Error}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health fetches GET /healthz. During graceful shutdown the daemon
// answers 503 with a "draining" body; that comes back as the health
// value together with a *ServiceError.
func (c *ServiceClient) Health(ctx context.Context) (ServiceHealth, error) {
	var h ServiceHealth
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches GET /metrics: the daemon's telemetry in Prometheus
// text format (queue depth, jobs by state, cache hit/miss counters,
// engine events/sec, acceleration decisions), as raw exposition text
// for scraping or assertion in smoke tests.
func (c *ServiceClient) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if resp.StatusCode/100 != 2 {
		return "", &ServiceError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return string(body), err
}

// Trace fetches GET /v1/jobs/{id}/trace: the Chrome trace JSON
// document retained with a job that was submitted with
// RunConfig.Trace set, once the job has finished. The bytes are the
// flight recording — task spans, per-core frequency and
// power-vs-budget counters, reconfiguration instants, dependence flow
// arrows — ready to write to a file and load in Perfetto
// (ui.perfetto.dev) or chrome://tracing. A *ServiceError with
// StatusCode 404 means the job is unknown or recorded no trace.
func (c *ServiceClient) Trace(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<28))
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(body))
		var wire struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &wire) == nil && wire.Error != "" {
			msg = wire.Error
		}
		return nil, &ServiceError{StatusCode: resp.StatusCode, Message: msg}
	}
	return body, err
}

// Policies fetches GET /v1/policies: the daemon's policy registry —
// every registered policy with its summary and typed parameters, as
// documented by PolicyDocs. A spec accepted here is submittable to
// POST /v1/runs by its string alone.
func (c *ServiceClient) Policies(ctx context.Context) ([]PolicyInfo, error) {
	var ps []PolicyInfo
	err := c.do(ctx, http.MethodGet, "/v1/policies", nil, &ps)
	return ps, err
}

// Workloads fetches GET /v1/workloads: the daemon's workload registry,
// as documented by Workloads.
func (c *ServiceClient) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var ws []WorkloadInfo
	err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &ws)
	return ws, err
}

// SubmitRun submits one simulation (POST /v1/runs) and returns the
// admitted job. A *ServiceError with StatusCode 429 means the daemon's
// queue is full; retry later.
func (c *ServiceClient) SubmitRun(ctx context.Context, cfg RunConfig) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs", cfg, &st)
	return st, err
}

// SubmitSweep submits a full evaluation matrix (POST /v1/sweeps) as one
// job and returns it. Empty matrix fields take the MatrixConfig
// defaults; cfg.Batch is ignored — execution policy belongs to the
// daemon.
func (c *ServiceClient) SubmitSweep(ctx context.Context, cfg MatrixConfig) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", cfg, &st)
	return st, err
}

// Job fetches one job's status (GET /v1/jobs/{id}).
func (c *ServiceClient) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Jobs lists all jobs in submission order (GET /v1/jobs).
func (c *ServiceClient) Jobs(ctx context.Context) ([]JobStatus, error) {
	var sts []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &sts)
	return sts, err
}

// Cancel requests cancellation of a job (DELETE /v1/jobs/{id}) and
// returns its status after the request. Cancellation is asynchronous
// for running jobs: follow Events or poll Job until terminal.
func (c *ServiceClient) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Events follows a job's SSE stream (GET /v1/jobs/{id}/events),
// invoking fn for every event: the full log replays first, then live
// events follow. Events returns nil when the stream ends with the job
// terminal, fn's error if it stops consumption, or the context error.
func (c *ServiceClient) Events(ctx context.Context, id string, fn func(JobEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return &ServiceError{StatusCode: resp.StatusCode, Message: e.Error}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var data strings.Builder
	flush := func() error {
		if data.Len() == 0 {
			return nil
		}
		var e JobEvent
		if err := json.Unmarshal([]byte(data.String()), &e); err != nil {
			return fmt.Errorf("catad: decoding event: %w", err)
		}
		data.Reset()
		return fn(e)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// event:/id:/retry: fields and comments are ignored; the
			// payload alone carries the typed event.
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return ctx.Err()
}

// Wait follows the job's event stream until the job reaches a terminal
// state and returns the final status, including results. A stream that
// dies or ends early (connection reset, idle-timeout proxy) is
// re-followed rather than mistaken for completion — as long as the
// daemon keeps answering status requests — so a nil error guarantees
// the returned status is terminal. Definitive daemon answers
// (*ServiceError, e.g. a 404 for an evicted job) and context
// cancellation end the wait.
func (c *ServiceClient) Wait(ctx context.Context, id string) (JobStatus, error) {
	for {
		err := c.Events(ctx, id, func(JobEvent) error { return nil })
		if ctx.Err() != nil {
			return JobStatus{}, ctx.Err()
		}
		var se *ServiceError
		if errors.As(err, &se) {
			return JobStatus{}, err
		}
		// Clean end of stream or a transport failure: the status tells
		// which — terminal means done, anything else means the stream
		// was cut short and we re-follow.
		st, jerr := c.Job(ctx, id)
		if jerr != nil {
			return st, jerr
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
