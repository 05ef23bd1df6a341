package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// waitState polls until the job reaches want or the timeout hits.
func waitState(t *testing.T, j *Job, want State) Status[json.RawMessage] {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := j.Status()
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", st.ID, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingFn returns an Fn that signals startedCh when running and
// blocks until release closes or its context is canceled.
func blockingFn(startedCh chan<- string, release <-chan struct{}) Fn {
	return func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		if startedCh != nil {
			startedCh <- "started"
		}
		select {
		case <-release:
			return json.RawMessage(`"done"`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestQueueFullShedding: with one worker busy and a depth-1 queue
// holding one job, the next submission is shed with ErrQueueFull and
// leaves no trace in the manager; after capacity frees up, submission
// works again.
func TestQueueFullShedding(t *testing.T) {
	m := New(1, 1, 0)
	started := make(chan string, 1)
	release := make(chan struct{})

	running, err := m.Submit("test", "running", blockingFn(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied
	queued, err := m.Submit("test", "queued", blockingFn(nil, release))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("test", "shed", blockingFn(nil, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if got := len(m.Jobs()); got != 2 {
		t.Fatalf("shed job registered: %d jobs, want 2", got)
	}

	close(release)
	waitState(t, running, Succeeded)
	waitState(t, queued, Succeeded)
	if _, err := m.Submit("test", "after", blockingFn(nil, release)); err != nil {
		t.Fatalf("submit after drain of queue: %v", err)
	}
}

// TestCancelBeforeStart: canceling a queued job moves it straight to
// Canceled, its Fn never runs, and the worker skips over it.
func TestCancelBeforeStart(t *testing.T) {
	m := New(1, 4, 0)
	started := make(chan string, 1)
	release := make(chan struct{})
	blocker, err := m.Submit("test", "blocker", blockingFn(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ran := false
	victim, err := m.Submit("test", "victim", func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	st := waitState(t, victim, Canceled)
	if st.Error != "canceled before start" {
		t.Fatalf("error = %q", st.Error)
	}
	if !st.Started.IsZero() {
		t.Fatal("canceled-before-start job has a start time")
	}

	close(release)
	waitState(t, blocker, Succeeded)
	// The worker has moved past the victim; its Fn must not have run.
	if ran {
		t.Fatal("canceled job's Fn ran")
	}
	// Event log: queued → canceled, nothing else.
	events := collectEvents(t, victim)
	if len(events) != 2 || events[0].State != Queued || events[1].State != Canceled {
		t.Fatalf("event log = %+v", events)
	}
}

// TestCancelMidRun: canceling a running job cancels its context; the
// partial result the Fn returned alongside ctx.Err() is preserved.
func TestCancelMidRun(t *testing.T) {
	m := New(1, 4, 0)
	started := make(chan string, 1)
	j, err := m.Submit("test", "mid", func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		started <- "started"
		<-ctx.Done()
		return json.RawMessage(`"partial"`), ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.Cancel()
	st := waitState(t, j, Canceled)
	if string(st.Result) != `"partial"` {
		t.Fatalf("result = %s, want partial payload", st.Result)
	}
	if st.Finished.IsZero() || st.Started.IsZero() {
		t.Fatalf("missing timestamps: %+v", st)
	}
}

// TestEventsReplayAndLive: a subscriber attached before events exist
// sees the full ordered log; one attached after termination replays it
// identically.
func TestEventsReplayAndLive(t *testing.T) {
	m := New(1, 4, 0)
	started := make(chan string, 1)
	release := make(chan struct{})
	j, err := m.Submit("test", "events", func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		started <- "started"
		for i := range 3 {
			publish(Event{Type: EventProgress, Progress: &Progress{Done: i + 1, Total: 3}})
		}
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	liveCh := j.Events(context.Background())
	<-started
	close(release)
	var live []Event
	for e := range liveCh {
		live = append(live, e)
	}
	replay := collectEvents(t, j)
	if len(live) != 6 { // queued, running, 3×progress, succeeded
		t.Fatalf("live subscriber got %d events: %+v", len(live), live)
	}
	if len(replay) != len(live) {
		t.Fatalf("replay %d events, live %d", len(replay), len(live))
	}
	for i := range live {
		if live[i].Seq != i || replay[i].Seq != i || live[i].Type != replay[i].Type {
			t.Fatalf("event %d mismatch: live %+v replay %+v", i, live[i], replay[i])
		}
	}
	if last := replay[len(replay)-1]; last.Type != EventState || last.State != Succeeded {
		t.Fatalf("last event = %+v, want terminal state", last)
	}
	// Publishing after termination is a no-op.
	j.Publish(Event{Type: EventProgress})
	if got := len(collectEvents(t, j)); got != 6 {
		t.Fatalf("post-terminal publish appended: %d events", got)
	}
}

// collectEvents drains a full replay of a terminal job's log.
func collectEvents(t *testing.T, j *Job) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var events []Event
	for e := range j.Events(ctx) {
		events = append(events, e)
	}
	if ctx.Err() != nil {
		t.Fatalf("event replay timed out with %d events", len(events))
	}
	return events
}

// TestEventsSubscriberCancel: a subscriber's context cancellation
// closes its channel even though the job never terminates.
func TestEventsSubscriberCancel(t *testing.T) {
	m := New(1, 4, 0)
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	j, err := m.Submit("test", "sub", blockingFn(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	ch := j.Events(ctx)
	<-ch // queued
	<-ch // running
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			// A buffered event may still arrive; the channel must
			// close right after.
			if _, ok := <-ch; ok {
				t.Fatal("channel still open after subscriber cancel")
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber channel never closed")
	}
}

// TestDrainWaitsForJobs: Drain without a deadline lets queued and
// running jobs finish, then returns nil; later submissions are refused
// with ErrDraining.
func TestDrainWaitsForJobs(t *testing.T) {
	m := New(1, 4, 0)
	started := make(chan string, 1)
	release := make(chan struct{})
	running, err := m.Submit("test", "running", blockingFn(started, release))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("test", "queued", func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		return json.RawMessage(`"ok"`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := running.Status(); st.State != Succeeded {
		t.Fatalf("running job state after drain = %s", st.State)
	}
	if st := queued.Status(); st.State != Succeeded {
		t.Fatalf("queued job state after drain = %s", st.State)
	}
	if _, err := m.Submit("test", "late", blockingFn(nil, release)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain err = %v, want ErrDraining", err)
	}
}

// TestDrainDeadlineCancels: when the drain deadline expires, in-flight
// jobs are force-canceled, Drain returns the context error, and every
// job ends terminal.
func TestDrainDeadlineCancels(t *testing.T) {
	m := New(1, 4, 0)
	started := make(chan string, 1)
	stubborn, err := m.Submit("test", "stubborn", func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		started <- "started"
		<-ctx.Done() // only yields to cancellation
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("test", "queued", blockingFn(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	if st := stubborn.Status(); st.State != Canceled {
		t.Fatalf("stubborn job state = %s, want canceled", st.State)
	}
	if st := queued.Status(); st.State != Canceled {
		t.Fatalf("queued job state = %s, want canceled", st.State)
	}
}

// TestFIFOOrder: a single worker executes queued jobs in submission
// order.
func TestFIFOOrder(t *testing.T) {
	m := New(1, 16, 0)
	started := make(chan string, 1)
	release := make(chan struct{})
	blocker, err := m.Submit("test", "blocker", blockingFn(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	order := make(chan int, 8)
	var tail []*Job
	for i := range 5 {
		j, err := m.Submit("test", fmt.Sprintf("job-%d", i), func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
			order <- i
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tail = append(tail, j)
	}
	close(release)
	waitState(t, blocker, Succeeded)
	for _, j := range tail {
		waitState(t, j, Succeeded)
	}
	close(order)
	prev := -1
	for got := range order {
		if got <= prev {
			t.Fatalf("jobs ran out of order: %d after %d", got, prev)
		}
		prev = got
	}
}

// TestFailedJobState: an Fn error other than cancellation lands in
// Failed with the message preserved.
func TestFailedJobState(t *testing.T) {
	m := New(1, 4, 0)
	j, err := m.Submit("test", "boom", func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, Failed)
	if st.Error != "boom" {
		t.Fatalf("error = %q", st.Error)
	}
}

// TestCancelQueuedFreesSlot: canceling a queued job releases its
// admission slot immediately — the very next submission is admitted
// even though the worker is still busy (regression: a channel-backed
// queue held the canceled corpse until a worker popped it, shedding
// live traffic with a nominally empty queue).
func TestCancelQueuedFreesSlot(t *testing.T) {
	m := New(1, 1, 0)
	started := make(chan string, 1)
	release := make(chan struct{})
	blocker, err := m.Submit("test", "blocker", blockingFn(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	victim, err := m.Submit("test", "victim", blockingFn(nil, release))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("test", "overflow", blockingFn(nil, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue not full before cancel: %v", err)
	}
	victim.Cancel()
	waitState(t, victim, Canceled)

	replacement, err := m.Submit("test", "replacement", func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatalf("slot not freed by cancel: %v", err)
	}
	close(release)
	waitState(t, blocker, Succeeded)
	waitState(t, replacement, Succeeded)
}

// TestTerminalJobEviction: once more than retain jobs are terminal,
// the oldest terminal jobs are evicted while queued/running jobs and
// the newest terminal jobs stay queryable.
func TestTerminalJobEviction(t *testing.T) {
	m := New(2, 8, 3)
	var done []*Job
	for i := range 6 {
		j, err := m.Submit("test", fmt.Sprintf("t%d", i), func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, Succeeded)
		done = append(done, j)
	}
	// Eviction runs after each completion, so only the 3 newest remain.
	if got := len(m.Jobs()); got != 3 {
		t.Fatalf("%d jobs retained, want 3", got)
	}
	for _, j := range done[:3] {
		if _, ok := m.Get(j.ID()); ok {
			t.Fatalf("old terminal job %s not evicted", j.ID())
		}
	}
	for _, j := range done[3:] {
		if _, ok := m.Get(j.ID()); !ok {
			t.Fatalf("recent terminal job %s evicted", j.ID())
		}
	}

	// A running job is never evicted, however many terminals complete
	// around it on the other worker.
	started := make(chan string, 1)
	release := make(chan struct{})
	runner, err := m.Submit("test", "runner", blockingFn(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	for i := range 5 {
		j, err := m.Submit("test", fmt.Sprintf("t2-%d", i), func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, Succeeded)
	}
	if _, ok := m.Get(runner.ID()); !ok {
		t.Fatal("running job was evicted")
	}
	close(release)
	waitState(t, runner, Succeeded)
}

// TestRetainOneConcurrentCompletions: at retain=1 with many workers
// racing terminal transitions (completions and queued-cancellations),
// the incremental terminal count stays consistent — exactly one
// terminal job survives and it is queryable.
func TestRetainOneConcurrentCompletions(t *testing.T) {
	m := New(8, 256, 1)
	const n = 200
	var jobs []*Job
	for i := range n {
		j, err := m.Submit("test", fmt.Sprintf("c%d", i), func(ctx context.Context, publish func(Event)) (json.RawMessage, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		// Cancel a slice of them while (possibly still) queued so the
		// Cancel terminal path races the worker completion path.
		if i%7 == 0 {
			go j.Cancel()
		}
	}
	for _, j := range jobs {
		deadline := time.Now().Add(10 * time.Second)
		for !j.isTerminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never reached a terminal state", j.ID())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Every job is terminal, so retention must have pruned down to one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		kept, terminal := len(m.order), m.terminal
		m.mu.Unlock()
		if kept == 1 && terminal == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained %d jobs (terminal count %d), want 1/1", kept, terminal)
		}
		time.Sleep(time.Millisecond)
	}
	survivors := m.Jobs()
	if len(survivors) != 1 {
		t.Fatalf("Jobs() = %d entries, want 1", len(survivors))
	}
	if _, ok := m.Get(survivors[0].ID()); !ok {
		t.Fatal("surviving job not queryable by ID")
	}
}
