package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around that call. Spans of one request share Req; Parent
// names the span that caused this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Attr   string        `json:"attr,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, which is how the untraced runs that produce the
// end-to-end figures stay free of tracing work.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noop ends a span that was never started.
func noop() int64 { return 0 }

// start opens a span and returns the function that closes it; the
// closer returns the span's ID so children can name it as Parent.
func (t *tracer) start(name, attr string, parent, req int64) func() int64 {
	if t == nil {
		return noop
	}
	begin := time.Since(t.t0)
	return func() int64 {
		end := time.Since(t.t0)
		t.mu.Lock()
		defer t.mu.Unlock()
		id := int64(len(t.spans) + 1)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Attr: attr, Start: begin, End: end})
		return id
	}
}

// add records a span whose bounds were measured elsewhere, such as a
// matrix cell timed by the batch engine or a job phase stamped by the
// server.
func (t *tracer) add(name, attr string, parent, req int64, begin, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Attr: attr,
		Start: begin.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// durs returns the durations of the spans named name (and attr, when
// attr is non-empty), in milliseconds.
func (t *tracer) durs(name, attr string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
