package sim

import (
	"fmt"
	"sort"
	"testing"
)

// This file fuzzes the arena engine against a trivially correct reference:
// a slice kept sorted by (time, seq). Both engines execute the same op
// script decoded from the fuzz input — schedule (At/After), reserve
// sequence numbers and schedule under them later (Reserve/AtReserved),
// cancel, Stop from inside a callback, RunUntil, Run, plus nested
// scheduling — and must produce byte-identical observation logs.

// scriptEngine is the surface both engines expose to the script driver.
type scriptEngine interface {
	At(t Time, fn func()) scriptHandle
	After(d Time, fn func()) scriptHandle
	Reserve(n int) uint64
	AtReserved(t Time, seq uint64, fn func()) scriptHandle
	Run() uint64
	RunUntil(deadline Time) uint64
	Stop()
	Now() Time
	Pending() int
}

type scriptHandle interface {
	Cancel() bool
	Pending() bool
}

// arenaAdapter adapts *Engine to scriptEngine.
type arenaAdapter struct{ e *Engine }

func (a arenaAdapter) At(t Time, fn func()) scriptHandle    { return a.e.At(t, Func(fn)) }
func (a arenaAdapter) After(d Time, fn func()) scriptHandle { return a.e.After(d, Func(fn)) }
func (a arenaAdapter) Reserve(n int) uint64                 { return a.e.Reserve(n) }
func (a arenaAdapter) AtReserved(t Time, seq uint64, fn func()) scriptHandle {
	return a.e.AtReserved(t, seq, Func(fn))
}
func (a arenaAdapter) Run() uint64            { return a.e.Run() }
func (a arenaAdapter) RunUntil(d Time) uint64 { return a.e.RunUntil(d) }
func (a arenaAdapter) Stop()                  { a.e.Stop() }
func (a arenaAdapter) Now() Time              { return a.e.Now() }
func (a arenaAdapter) Pending() int           { return a.e.Pending() }

// refEngine is the reference implementation: events in a slice kept sorted
// by (at, seq) with linear insertion. Slow and obviously correct.
type refEngine struct {
	now     Time
	seq     uint64
	events  []*refEvent
	stopped bool
	fired   uint64
}

type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

type refHandle struct{ ev *refEvent }

func (h refHandle) Cancel() bool {
	if h.ev == nil || h.ev.cancelled || h.ev.fired {
		return false
	}
	h.ev.cancelled = true
	return true
}

func (h refHandle) Pending() bool {
	return h.ev != nil && !h.ev.cancelled && !h.ev.fired
}

func (r *refEngine) At(t Time, fn func()) scriptHandle {
	if t < r.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", t, r.now))
	}
	if fn == nil {
		panic("ref: nil event function")
	}
	h := r.insert(t, r.seq, fn)
	r.seq++
	return h
}

func (r *refEngine) Reserve(n int) uint64 {
	first := r.seq
	r.seq += uint64(n)
	return first
}

func (r *refEngine) AtReserved(t Time, seq uint64, fn func()) scriptHandle {
	if t < r.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", t, r.now))
	}
	return r.insert(t, seq, fn)
}

// insert places the event after every event with an earlier key.
func (r *refEngine) insert(t Time, seq uint64, fn func()) scriptHandle {
	ev := &refEvent{at: t, seq: seq, fn: fn}
	i := sort.Search(len(r.events), func(i int) bool {
		e := r.events[i]
		return e.at > t || (e.at == t && e.seq > seq)
	})
	r.events = append(r.events, nil)
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = ev
	return refHandle{ev}
}

func (r *refEngine) After(d Time, fn func()) scriptHandle {
	if d < 0 {
		panic("ref: negative delay")
	}
	return r.At(r.now+d, fn)
}

func (r *refEngine) Stop() { r.stopped = true }

func (r *refEngine) Run() uint64 {
	return r.run(func(Time) bool { return false })
}

func (r *refEngine) RunUntil(deadline Time) uint64 {
	n := r.run(func(at Time) bool { return at > deadline })
	if !r.stopped && r.now < deadline {
		r.now = deadline
	}
	return n
}

func (r *refEngine) run(stopBefore func(Time) bool) uint64 {
	r.stopped = false
	var n uint64
	for len(r.events) > 0 && !r.stopped {
		ev := r.events[0]
		if ev.cancelled {
			r.events = r.events[1:]
			continue
		}
		if stopBefore(ev.at) {
			break
		}
		r.events = r.events[1:]
		r.now = ev.at
		ev.fired = true
		ev.fn()
		n++
		r.fired++
	}
	return n
}

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) Pending() int {
	n := 0
	for _, ev := range r.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// runScript decodes ops from data and drives e, returning the observation
// log. Callbacks record their id and firing time; every third scheduled
// event schedules a child from inside its callback, and every seventh
// calls Stop, so the script exercises nested scheduling and mid-run stops.
func runScript(e scriptEngine, data []byte) []string {
	var log []string
	var handles []scriptHandle
	var reserved []uint64 // reserved sequence numbers not yet used
	nextID := 0
	var mkEvent func() (int, func())
	mkEvent = func() (int, func()) {
		id := nextID
		nextID++
		fn := func() {
			log = append(log, fmt.Sprintf("fire %d @%d", id, e.Now()))
			if id%3 == 0 {
				cid, cfn := mkEvent()
				h := e.After(Time(id%5), cfn)
				handles = append(handles, h)
				log = append(log, fmt.Sprintf("child %d of %d", cid, id))
			}
			if id%7 == 6 {
				e.Stop()
				log = append(log, fmt.Sprintf("stop by %d", id))
			}
		}
		return id, fn
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%7, Time(data[i+1])
		switch op {
		case 0: // At now+arg
			_, fn := mkEvent()
			handles = append(handles, e.At(e.Now()+arg, fn))
		case 1: // After arg
			_, fn := mkEvent()
			handles = append(handles, e.After(arg, fn))
		case 2: // Cancel an existing handle
			if len(handles) > 0 {
				h := handles[int(arg)%len(handles)]
				log = append(log, fmt.Sprintf("cancel=%v pending=%v", h.Cancel(), h.Pending()))
			}
		case 3: // RunUntil now+arg
			n := e.RunUntil(e.Now() + arg)
			log = append(log, fmt.Sprintf("rununtil n=%d now=%d pend=%d", n, e.Now(), e.Pending()))
		case 4: // Run to completion (or Stop)
			n := e.Run()
			log = append(log, fmt.Sprintf("run n=%d now=%d pend=%d", n, e.Now(), e.Pending()))
		case 5: // Reserve 1..4 sequence numbers
			n := 1 + int(arg)%4
			first := e.Reserve(n)
			for k := 0; k < n; k++ {
				reserved = append(reserved, first+uint64(k))
			}
			log = append(log, fmt.Sprintf("reserve %d first=%d", n, first))
		case 6: // AtReserved now+arg under one unused reserved seq, in any order
			if len(reserved) > 0 {
				k := int(arg) % len(reserved)
				seq := reserved[k]
				reserved = append(reserved[:k], reserved[k+1:]...)
				_, fn := mkEvent()
				handles = append(handles, e.AtReserved(e.Now()+arg%8, seq, fn))
			}
		}
		log = append(log, fmt.Sprintf("state now=%d pend=%d", e.Now(), e.Pending()))
	}
	// Drain. A Stop inside the final drain can leave events pending; keep
	// draining until the queue is empty so every non-cancelled event fires.
	for e.Pending() > 0 {
		e.Run()
	}
	log = append(log, fmt.Sprintf("end now=%d pend=%d", e.Now(), e.Pending()))
	return log
}

func FuzzEngineVsReference(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 4, 0})
	f.Add([]byte{0, 3, 0, 3, 2, 0, 4, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 3, 2, 2, 1, 4, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 2, 3, 2, 3})
	f.Add([]byte{1, 200, 0, 100, 3, 50, 3, 255, 2, 0, 4, 0, 1, 9})
	f.Add([]byte{0, 7, 1, 7, 0, 7, 1, 7, 0, 7, 1, 7, 0, 7, 4, 0}) // same-timestamp FIFO + stop
	f.Add([]byte{5, 3, 0, 0, 0, 0, 6, 2, 6, 0, 6, 1, 4, 0})       // reserved seqs tie with later At
	f.Add([]byte{5, 1, 0, 4, 3, 2, 6, 2, 6, 1, 4, 0})             // reserved seqs used after time advanced
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // keep scripts short; long inputs add no new structure
		}
		got := runScript(arenaAdapter{NewEngine()}, data)
		want := runScript(&refEngine{}, data)
		if len(got) != len(want) {
			t.Fatalf("log length: arena %d vs reference %d\narena: %q\nref:   %q", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("log[%d]: arena %q vs reference %q", i, got[i], want[i])
			}
		}
	})
}
