// Package jobs is the bounded job manager behind catad: a fixed worker
// pool fed by a FIFO admission queue of configurable depth. Submissions
// beyond the queue depth are shed immediately (ErrQueueFull → the
// daemon's 429), every job carries its own cancelable context, and each
// job keeps an ordered event log that any number of subscribers can
// replay and follow live — the backing store of the daemon's SSE
// streams. Drain turns the manager off gracefully: admission stops,
// queued and running jobs finish, and past a caller-chosen deadline
// everything still in flight is canceled.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// State is a job's lifecycle stage.
type State string

// The job lifecycle: Queued → Running → one of the three terminal
// states. Cancel moves a queued job straight to Canceled.
const (
	// Queued: admitted, waiting for a worker.
	Queued State = "queued"
	// Running: executing on a worker.
	Running State = "running"
	// Succeeded: finished without error.
	Succeeded State = "succeeded"
	// Failed: finished with an error other than cancellation.
	Failed State = "failed"
	// Canceled: canceled before or during execution.
	Canceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Succeeded || s == Failed || s == Canceled
}

// Progress is a structured progress snapshot published by a running
// job, mirroring the batch engine's progress events on the wire.
type Progress struct {
	// Done counts finished runs (including cache hits); Total is the
	// job's run count.
	Done int `json:"done"`
	// Total is the number of runs the job executes.
	Total int `json:"total"`
	// Cached counts runs served from the result cache so far.
	Cached int `json:"cached,omitempty"`
	// Failed counts runs that returned an error so far.
	Failed int `json:"failed,omitempty"`
	// Spec describes the run that just completed.
	Spec string `json:"spec,omitempty"`
	// ElapsedMS is that run's wall-clock time in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// ETAMS estimates the remaining wall time in milliseconds.
	ETAMS int64 `json:"eta_ms,omitempty"`
	// Note carries the engine's annotation (e.g. the live best EDP).
	Note string `json:"note,omitempty"`
}

// Event is one entry in a job's ordered event log: a state transition
// or a progress update. Seq and Time are assigned by the log.
type Event struct {
	// Seq is the event's position in the job's log, starting at 0.
	Seq int `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Type is "state" or "progress".
	Type string `json:"type"`
	// State is the state entered, for "state" events.
	State State `json:"state,omitempty"`
	// Error carries the failure or cancellation reason, if any.
	Error string `json:"error,omitempty"`
	// Progress carries the snapshot, for "progress" events.
	Progress *Progress `json:"progress,omitempty"`
}

// Event type tags.
const (
	// EventState marks a state-transition event.
	EventState = "state"
	// EventProgress marks a progress-update event.
	EventProgress = "progress"
)

// Status is a point-in-time snapshot of a job, the payload of the
// daemon's job endpoints. R is the result payload's type: the manager
// holds results as encoded JSON and snapshots as Status[json.RawMessage],
// which the daemon writes as is; clients decode the same bytes into
// their typed result.
type Status[R any] struct {
	// ID is the job's manager-assigned identifier.
	ID string `json:"id"`
	// Kind is the submitter's job class ("run", "sweep").
	Kind string `json:"kind"`
	// Label is a human-readable summary of the job's work.
	Label string `json:"label,omitempty"`
	// State is the job's current lifecycle stage.
	State State `json:"state"`
	// Submitted is when the job was admitted.
	Submitted time.Time `json:"submitted"`
	// Started is when a worker picked the job up (zero while queued).
	Started time.Time `json:"started,omitzero"`
	// Finished is when the job reached a terminal state.
	Finished time.Time `json:"finished,omitzero"`
	// Error is the failure or cancellation reason, if any.
	Error string `json:"error,omitempty"`
	// Events is the current length of the job's event log.
	Events int `json:"events"`
	// Result is the job's result payload, present once terminal (a
	// canceled job may carry the partial results gathered before the
	// cancel).
	Result R `json:"result,omitempty"`
}

// Fn executes a job's work. It must honor ctx — cancellation via
// DELETE /v1/jobs/{id} and drain deadlines arrive through it — and may
// stream Progress events through publish. The returned payload is
// recorded as the job's result even when err is non-nil (partial
// results of a canceled sweep stay observable).
type Fn func(ctx context.Context, publish func(Event)) (json.RawMessage, error)

// Manager errors.
var (
	// ErrQueueFull sheds a submission when the admission queue is at
	// capacity (the daemon answers 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("jobs: draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: not found")
)

// Job is one submitted unit of work: its identity, lifecycle state,
// result, and an ordered event log with live subscriptions.
type Job struct {
	id        string
	kind      string
	label     string
	submitted time.Time
	fn        Fn
	ctx       context.Context
	cancel    context.CancelFunc
	mgr       *Manager

	mu        sync.Mutex
	cond      *sync.Cond
	state     State
	started   time.Time
	finished  time.Time
	err       string
	result    json.RawMessage
	events    []Event
	artifacts map[string][]byte
}

// ID returns the job's manager-assigned identifier.
func (j *Job) ID() string { return j.id }

// isTerminal reports whether the job has reached a terminal state.
func (j *Job) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Status snapshots the job.
func (j *Job) Status() Status[json.RawMessage] {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status[json.RawMessage]{
		ID: j.id, Kind: j.kind, Label: j.label,
		State:     j.state,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Error:  j.err,
		Events: len(j.events),
		Result: j.result,
	}
}

// artifactCtxKey carries the owning *Job inside the job's context so a
// running Fn can attach artifacts without closing over the Job (which
// may not exist yet when the Fn closure is built).
type artifactCtxKey struct{}

// StoreArtifact attaches a named byte artifact (e.g. a trace document)
// to the job whose Fn is running under ctx. It reports whether a job
// was found; artifacts live and die with the job — evicted together by
// the retention pruner. Storing the same name again replaces the data.
func StoreArtifact(ctx context.Context, name string, data []byte) bool {
	j, ok := ctx.Value(artifactCtxKey{}).(*Job)
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.artifacts == nil {
		j.artifacts = make(map[string][]byte)
	}
	j.artifacts[name] = data
	return true
}

// Artifact returns the named artifact attached to the job, if any.
func (j *Job) Artifact(name string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.artifacts[name]
	return data, ok
}

// appendLocked stamps and records an event; j.mu must be held.
func (j *Job) appendLocked(e Event) {
	e.Seq = len(j.events)
	e.Time = time.Now()
	j.events = append(j.events, e)
	j.cond.Broadcast()
}

// Publish appends an event to the job's log, waking all subscribers.
// It is safe for concurrent use and becomes a no-op once the job is
// terminal (the terminal state event is always the log's last entry).
func (j *Job) Publish(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.appendLocked(e)
}

// Events subscribes to the job's event log from the beginning: the log
// so far replays immediately, then new events arrive as published. The
// channel closes after the terminal state event has been delivered, or
// when ctx is done.
func (j *Job) Events(ctx context.Context) <-chan Event {
	ch := make(chan Event)
	// Waking the cond on ctx cancellation lets the subscriber goroutine
	// observe ctx.Err() and exit instead of waiting forever.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	go func() {
		defer close(ch)
		defer stop()
		next := 0
		for {
			j.mu.Lock()
			for next >= len(j.events) && !j.state.Terminal() && ctx.Err() == nil {
				j.cond.Wait()
			}
			pending := append([]Event(nil), j.events[next:]...)
			terminal := j.state.Terminal()
			j.mu.Unlock()
			next += len(pending)
			for _, e := range pending {
				select {
				case ch <- e:
				case <-ctx.Done():
					return
				}
			}
			// The terminal event is appended in the same critical
			// section that sets the terminal state, so a terminal
			// snapshot means the log is complete.
			if terminal || ctx.Err() != nil {
				return
			}
		}
	}()
	return ch
}

// Cancel requests cancellation: a queued job turns Canceled without
// running (and releases its admission-queue slot immediately); a
// running job has its context canceled and turns Canceled when its Fn
// returns; a terminal job is left untouched.
func (j *Job) Cancel() {
	j.mu.Lock()
	wasQueued := j.state == Queued
	if wasQueued {
		j.state = Canceled
		j.finished = time.Now()
		j.err = "canceled before start"
		j.fn = nil // release the closure and everything it pins
		j.appendLocked(Event{Type: EventState, State: Canceled, Error: j.err})
		mCompleted.With(string(Canceled)).Inc()
	}
	j.mu.Unlock()
	j.cancel()
	if wasQueued {
		j.mgr.dequeue(j)
		j.mgr.noteTerminal()
	}
}

// run executes the job on a worker, skipping jobs canceled while queued.
func (j *Job) run() {
	j.mu.Lock()
	if j.state != Queued {
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.appendLocked(Event{Type: EventState, State: Running})
	mRunning.Add(1)
	j.mu.Unlock()

	res, err := j.fn(j.ctx, j.Publish)
	j.cancel() // release the context's resources
	mRunning.Add(-1)

	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	j.result = res
	// A retained terminal job keeps its event log and result, not its
	// work: dropping fn releases the closure and the configs it pins.
	j.fn = nil
	switch {
	case err == nil:
		j.state = Succeeded
	case errors.Is(err, context.Canceled):
		j.state = Canceled
		j.err = err.Error()
	default:
		j.state = Failed
		j.err = err.Error()
	}
	j.appendLocked(Event{Type: EventState, State: j.state, Error: j.err})
	mCompleted.With(string(j.state)).Inc()
	mDuration.Observe(j.finished.Sub(j.started).Seconds())
	j.mu.Unlock()
	// Outside j.mu: noteTerminal acquires the manager lock and may probe
	// job states (Manager.mu → Job.mu ordering).
	j.mgr.noteTerminal()
}

// Manager runs submitted jobs on a fixed worker pool behind a FIFO
// admission queue. The queue is a slice rather than a channel so that
// canceling a queued job frees its admission slot immediately instead
// of holding it hostage until a worker pops and skips the corpse. All
// methods are safe for concurrent use.
type Manager struct {
	mu       sync.Mutex
	cond     *sync.Cond // signals queue growth and drain start
	jobs     map[string]*Job
	order    []*Job // submission order, for listing
	queue    []*Job // FIFO of admitted, not-yet-started jobs
	depth    int
	retain   int
	terminal int // jobs in a terminal state, maintained by noteTerminal
	nextID   int
	draining bool
	workers  sync.WaitGroup
}

// New starts a manager with the given worker count (default GOMAXPROCS),
// admission queue depth (default 64), and terminal-job retention limit
// (default 512). Submissions finding the queue full are shed with
// ErrQueueFull; running jobs occupy workers, not queue slots. Once more
// than retain jobs are terminal, the oldest terminal jobs — with their
// event logs and result payloads — are evicted (Get returns false), so
// a long-running daemon's memory stays bounded; queued and running jobs
// are never evicted.
func New(workers, depth, retain int) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 64
	}
	if retain <= 0 {
		retain = 512
	}
	m := &Manager{
		jobs:   map[string]*Job{},
		depth:  depth,
		retain: retain,
	}
	m.cond = sync.NewCond(&m.mu)
	for range workers {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// noteTerminal records one job's transition into a terminal state and
// evicts beyond the retention limit. Callers must not hold any job's
// mutex: eviction inspects job states under m.mu, and the lock order is
// Manager.mu → Job.mu.
func (m *Manager) noteTerminal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.terminal++
	if m.terminal <= m.retain {
		return
	}
	// Single pass: evict the oldest terminal jobs until back at the
	// retention limit, compacting m.order in place. The incremental
	// m.terminal count means no full recount of every job per terminal
	// transition (the old code was O(jobs²) lock acquisitions under
	// churn); the per-job state probe below runs only on the rare
	// eviction pass.
	kept := m.order[:0]
	for _, j := range m.order {
		if m.terminal > m.retain && j.isTerminal() {
			delete(m.jobs, j.id)
			m.terminal--
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(m.order); i++ {
		m.order[i] = nil // release evicted jobs to the collector
	}
	m.order = kept
}

// worker pops queued jobs in FIFO order until drain empties the queue.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.draining {
			m.cond.Wait()
		}
		if len(m.queue) == 0 { // draining and nothing left
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		mQueueDepth.Set(float64(len(m.queue)))
		m.mu.Unlock()
		j.run()
	}
}

// dequeue removes a job from the admission queue, if still there.
func (m *Manager) dequeue(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			mQueueDepth.Set(float64(len(m.queue)))
			return
		}
	}
}

// Submit admits a job to the FIFO queue. It returns ErrQueueFull when
// the queue is at depth (load shedding — nothing is enqueued) and
// ErrDraining after Drain has begun.
func (m *Manager) Submit(kind, label string, fn Fn) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if len(m.queue) >= m.depth {
		mShed.Inc()
		return nil, ErrQueueFull
	}
	m.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id: fmt.Sprintf("j%d", m.nextID), kind: kind, label: label,
		submitted: time.Now(), fn: fn, ctx: ctx, cancel: cancel,
		mgr:   m,
		state: Queued,
	}
	j.cond = sync.NewCond(&j.mu)
	// The job rides inside its own context so the running Fn can attach
	// artifacts via StoreArtifact. Attached here (not captured in fn)
	// because a worker may pop the job before Submit returns.
	j.ctx = context.WithValue(ctx, artifactCtxKey{}, j)
	// The queued event is recorded before the job becomes visible to
	// workers, so the log always starts with it.
	j.events = []Event{{Seq: 0, Time: j.submitted, Type: EventState, State: Queued}}
	m.queue = append(m.queue, j)
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	mSubmitted.Inc()
	mQueueDepth.Set(float64(len(m.queue)))
	m.cond.Signal()
	return j, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels the job with the given ID (see Job.Cancel).
func (m *Manager) Cancel(id string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	j.Cancel()
	return j, nil
}

// Jobs lists all known jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Job(nil), m.order...)
}

// Counts tallies jobs by lifecycle stage.
func (m *Manager) Counts() (queued, running, terminal int) {
	for _, j := range m.Jobs() {
		switch j.Status().State {
		case Queued:
			queued++
		case Running:
			running++
		default:
			terminal++
		}
	}
	return queued, running, terminal
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// drainGrace bounds how long Drain waits for workers after the
// deadline's force-cancel: a job Fn that honors its context unwinds
// within it, while one stuck in uninterruptible work (a single
// simulation cannot be preempted mid-run) stops delaying shutdown and
// is abandoned to finish — or die with the process — on its own.
const drainGrace = 10 * time.Second

// Drain shuts the manager down gracefully: admission stops (Submit
// returns ErrDraining), then queued and running jobs are allowed to
// finish. If ctx expires first, every non-terminal job is canceled,
// the workers get drainGrace to unwind, and ctx's error is returned.
// Drain is idempotent and safe to call concurrently.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.cond.Broadcast() // wake idle workers so they can exit
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: hard-cancel everything still in flight. Workers
	// unwind as soon as the job Fns observe their canceled contexts.
	for _, j := range m.Jobs() {
		j.Cancel()
	}
	select {
	case <-done:
	case <-time.After(drainGrace):
	}
	return ctx.Err()
}
