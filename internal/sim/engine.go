package sim

import "fmt"

// Target receives the events scheduled for it. A simulator layer keeps
// its per-core stage state in a struct whose Fire method is one switch
// over the layer's op codes; scheduling an event that names a pointer to
// that struct allocates nothing.
type Target interface{ Fire(op uint8) }

// Event is a continuation: when it fires, the engine calls T.Fire(Op).
// Layers hand each other Events as their done callbacks too, so one
// value type names every scheduled and every pending step. The zero
// Event names nothing.
type Event struct {
	T  Target
	Op uint8
}

// Fire runs the continuation now, on the caller's timeline.
func (ev Event) Fire() { ev.T.Fire(ev.Op) }

// Func wraps a plain function as an Event, for tests. The closure
// allocates as closures do; the simulator's layers schedule pointer
// targets instead.
func Func(fn func()) Event { return Event{T: funcTarget(fn)} }

type funcTarget func()

func (f funcTarget) Fire(uint8) { f() }

// Handle identifies a scheduled event and allows cancelling it before it
// fires. The zero value is invalid; handles are obtained from Engine.At and
// Engine.After.
//
// A handle names an arena slot plus the generation the slot had when the
// event was scheduled. Slots are recycled after an event fires or its
// cancelled entry is discarded, and every recycle bumps the generation, so
// a stale handle can never cancel an unrelated later event that happens to
// reuse its slot.
type Handle struct {
	eng *Engine
	idx int32
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel reports whether the
// event was still pending.
func (h Handle) Cancel() bool {
	if h.eng == nil {
		return false
	}
	s := &h.eng.arena[h.idx]
	if s.gen != h.gen || s.t == nil {
		return false
	}
	s.t = nil // marks it cancelled; the heap entry is discarded lazily
	h.eng.live--
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	if h.eng == nil {
		return false
	}
	s := &h.eng.arena[h.idx]
	return s.gen == h.gen && s.t != nil
}

// eventSlot is one arena entry: the event's target, nil once the event is
// cancelled. The timestamp and FIFO sequence live in the heap entry, not
// here: the heap's sift comparisons then never chase a pointer into the
// arena.
type eventSlot struct {
	t   Target
	gen uint64 // 64-bit: a recycled-slot counter that can never wrap in practice
}

// heapEnt is one entry of the inline 4-ary min-heap: the full ordering key
// (timestamp, FIFO sequence), the arena slot it resolves to, and the
// event's op, which fits the entry's padding.
type heapEnt struct {
	at  Time
	seq uint64
	idx int32
	op  uint8
}

func (a heapEnt) before(b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a sequential discrete-event simulator. Events scheduled for the
// same timestamp fire in scheduling order (FIFO), which makes simulations
// fully deterministic.
//
// Events live in a slab-allocated arena with a free list: scheduling does
// not allocate once the arena has warmed up to the simulation's peak
// pending-event count, and the priority queue is an inline 4-ary heap of
// plain (time, seq, slot) values — no per-event heap pointer, no
// interface{} boxing, and a shallower tree than a binary heap for the
// sift-down-dominated discrete-event workload.
//
// Engine is not safe for concurrent use; a simulation runs on one
// goroutine. Run independent simulations on independent Engines to use
// multiple CPUs.
type Engine struct {
	now     Time
	queue   []heapEnt
	arena   []eventSlot
	free    []int32
	seq     uint64
	live    int // scheduled and neither fired nor cancelled
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled to fire. Cancelled
// events are excluded immediately, even though their queue entries are
// discarded lazily.
func (e *Engine) Pending() int { return e.live }

// At schedules ev to fire at absolute time t. Scheduling in the past (t <
// Now) panics: it always indicates a model bug, and silently clamping would
// hide it.
func (e *Engine) At(t Time, ev Event) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if ev.T == nil {
		panic("sim: scheduling an event with no target")
	}
	idx := e.alloc(ev.T)
	e.push(heapEnt{at: t, seq: e.seq, idx: idx, op: ev.Op})
	e.seq++
	e.live++
	return Handle{eng: e, idx: idx, gen: e.arena[idx].gen}
}

// Reserve sets aside the next n FIFO sequence numbers and returns the
// first. Scheduling an event with AtReserved under one of them gives it
// the same place among same-timestamp events that At would have given
// it at the moment of the reservation, however late it is actually
// scheduled. A source of many future events (an open system's arrival
// schedule) reserves their sequence numbers up front and keeps only the
// next one queued.
func (e *Engine) Reserve(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: reserving %d sequence numbers", n))
	}
	first := e.seq
	e.seq += uint64(n)
	return first
}

// AtReserved schedules ev at absolute time t under seq, a sequence
// number obtained from Reserve. The caller must use each reserved number
// once: the engine cannot tell a reserved number from one already used,
// and panics only on a number it has not issued yet. Like At, it panics
// when t is before Now.
func (e *Engine) AtReserved(t Time, seq uint64, ev Event) Handle {
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: sequence number %d was not reserved", seq))
	}
	// At takes the sequence number from e.seq; lend it seq, keeping At
	// itself, the hot path, untouched. The deferred restore also runs
	// when At panics.
	next := e.seq
	e.seq = seq
	defer func() { e.seq = next }()
	return e.At(t, ev)
}

// After schedules ev to fire d after the current time.
func (e *Engine) After(d Time, ev Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling negative delay %v", d))
	}
	return e.At(e.now+d, ev)
}

// alloc takes a slot off the free list, growing the arena when empty.
func (e *Engine) alloc(t Target) int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		e.arena[idx].t = t
		return idx
	}
	e.arena = append(e.arena, eventSlot{t: t})
	return int32(len(e.arena) - 1)
}

// release recycles a slot: bump the generation so outstanding handles go
// stale, drop the target, and return the slot to the free list.
func (e *Engine) release(idx int32) {
	s := &e.arena[idx]
	s.gen++
	s.t = nil
	e.free = append(e.free, idx)
}

// Stop makes Run return after the currently executing event completes.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains or Stop is
// called. It returns the number of events executed during this call.
func (e *Engine) Run() uint64 {
	return e.run(func(Time) bool { return false })
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it is ahead of the last event). It returns the
// number of events executed during this call.
func (e *Engine) RunUntil(deadline Time) uint64 {
	n := e.run(func(at Time) bool { return at > deadline })
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

func (e *Engine) run(stopBefore func(Time) bool) uint64 {
	e.stopped = false
	var n uint64
	for len(e.queue) > 0 && !e.stopped {
		top := e.queue[0]
		t := e.arena[top.idx].t
		if t == nil { // cancelled
			e.pop()
			e.release(top.idx)
			continue
		}
		if stopBefore(top.at) {
			break
		}
		if top.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, top.at))
		}
		e.pop()
		e.release(top.idx)
		e.now = top.at
		e.live--
		t.Fire(top.op)
		n++
		e.fired++
	}
	return n
}

// The inline 4-ary min-heap. Children of i sit at 4i+1..4i+4. Four-way
// fan-out halves the tree depth of the sift-down path that dominates a
// discrete-event queue (every fired event is a pop), at the cost of three
// extra comparisons per level — a net win once the queue holds more than a
// handful of events.

func (e *Engine) push(ent heapEnt) {
	e.queue = append(e.queue, ent)
	i := len(e.queue) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ent.before(e.queue[parent]) {
			break
		}
		e.queue[i] = e.queue[parent]
		i = parent
	}
	e.queue[i] = ent
}

func (e *Engine) pop() {
	n := len(e.queue) - 1
	ent := e.queue[n]
	e.queue = e.queue[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.queue[c].before(e.queue[min]) {
				min = c
			}
		}
		if !e.queue[min].before(ent) {
			break
		}
		e.queue[i] = e.queue[min]
		i = min
	}
	e.queue[i] = ent
}
