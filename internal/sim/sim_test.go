package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if Microsecond*25 != Time(25e6) {
		t.Fatalf("25µs = %d ps, want 25e6", int64(25*Microsecond))
	}
	if got := (25 * Microsecond).Micros(); got != 25 {
		t.Fatalf("Micros() = %v, want 25", got)
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Fatalf("Millis() = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{25 * Microsecond, "25µs"},
		{15 * Millisecond, "15ms"},
		{3 * Second, "3s"},
		{-25 * Microsecond, "-25µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestHertzPeriod(t *testing.T) {
	if p := (2 * Gigahertz).Period(); p != 500*Picosecond {
		t.Fatalf("2GHz period = %v, want 500ps", p)
	}
	if p := (1 * Gigahertz).Period(); p != Nanosecond {
		t.Fatalf("1GHz period = %v, want 1ns", p)
	}
}

func TestHertzString(t *testing.T) {
	if got := (2 * Gigahertz).String(); got != "2GHz" {
		t.Fatalf("String = %q", got)
	}
	if got := (800 * Megahertz).String(); got != "800MHz" {
		t.Fatalf("String = %q", got)
	}
}

func TestCycles(t *testing.T) {
	if d := Cycles(1000, Gigahertz); d != Microsecond {
		t.Fatalf("1000 cycles @1GHz = %v, want 1µs", d)
	}
	if d := Cycles(1000, 2*Gigahertz); d != 500*Nanosecond {
		t.Fatalf("1000 cycles @2GHz = %v, want 500ns", d)
	}
	if n := CyclesIn(Microsecond, 2*Gigahertz); n != 2000 {
		t.Fatalf("CyclesIn(1µs, 2GHz) = %d, want 2000", n)
	}
	if n := CyclesIn(-Microsecond, Gigahertz); n != 0 {
		t.Fatalf("CyclesIn negative = %d, want 0", n)
	}
}

func TestPeriodPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Period(0) did not panic")
		}
	}()
	Hertz(0).Period()
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, Func(func() { got = append(got, 3) }))
	e.At(10, Func(func() { got = append(got, 1) }))
	e.At(20, Func(func() { got = append(got, 2) }))
	if n := e.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, Func(func() { got = append(got, i) }))
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-timestamp events not FIFO: %v", got)
	}
}

// TestEngineReservedSeqKeepsItsPlace: an event scheduled late under a
// sequence number reserved early fires before events scheduled after
// the reservation at the same timestamp, and after those scheduled
// before it, exactly where At would have put it at reservation time.
func TestEngineReservedSeqKeepsItsPlace(t *testing.T) {
	e := NewEngine()
	var got []string
	mark := func(name string) Event { return Func(func() { got = append(got, name) }) }
	e.At(10, mark("before"))
	first := e.Reserve(2)
	e.At(10, mark("after"))
	e.At(5, Func(func() {
		// Scheduled at t=5, long after "after" was queued, in reverse
		// order of the two reserved numbers.
		e.AtReserved(10, first+1, mark("reserved1"))
		e.AtReserved(10, first, mark("reserved0"))
	}))
	e.Run()
	if want := "[before reserved0 reserved1 after]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

func TestEngineAtReservedPanicsOnUnreservedSeq(t *testing.T) {
	e := NewEngine()
	first := e.Reserve(1)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling under an unreserved sequence number did not panic")
		}
	}()
	e.AtReserved(1, first+1, Func(func() {}))
}

// TestEngineAtReservedPanicKeepsSeq: an AtReserved that panics on a
// past timestamp leaves the engine's next sequence number as it was.
func TestEngineAtReservedPanicKeepsSeq(t *testing.T) {
	e := NewEngine()
	first := e.Reserve(1)
	e.At(5, Func(func() {
		next := e.seq
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduling before now did not panic")
				}
			}()
			e.AtReserved(1, first, Func(func() {}))
		}()
		if e.seq != next {
			t.Fatalf("next sequence number %d after the panic, want %d", e.seq, next)
		}
	}))
	e.Run()
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.At(10, Func(func() {
		trace = append(trace, e.Now())
		e.After(5, Func(func() { trace = append(trace, e.Now()) }))
		e.At(12, Func(func() { trace = append(trace, e.Now()) }))
	}))
	e.Run()
	want := []Time{10, 12, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10, Func(func() { fired = true }))
	if !h.Pending() {
		t.Fatal("handle should be pending")
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Pending() {
		t.Fatal("cancelled handle still pending")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	h := e.At(1, Func(func() {}))
	e.Run()
	if h.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	var count int
	for i := Time(1); i <= 10; i++ {
		e.At(i, Func(func() {
			count++
			if count == 4 {
				e.Stop()
			}
		}))
	}
	if n := e.Run(); n != 4 {
		t.Fatalf("Run executed %d, want 4", n)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
	// Resume picks up where we stopped.
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	e.At(10, Func(func() { count++ }))
	e.At(20, Func(func() { count++ }))
	e.At(30, Func(func() { count++ }))
	if n := e.RunUntil(20); n != 2 {
		t.Fatalf("RunUntil executed %d, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	// Clock advances to deadline even with no events there.
	e.RunUntil(25)
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	e.Run()
	if count != 3 || e.Now() != 30 {
		t.Fatalf("count=%d Now=%v", count, e.Now())
	}
}

func TestEnginePanicsOnPastScheduling(t *testing.T) {
	e := NewEngine()
	e.At(100, Func(func() {}))
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, Func(func() {}))
}

func TestEnginePanicsOnNilFunc(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("event with no target did not panic")
		}
	}()
	e.At(1, Event{})
}

// opLog is a pointer target recording the ops it is fired with.
type opLog struct{ ops []uint8 }

func (l *opLog) Fire(op uint8) { l.ops = append(l.ops, op) }

// TestEngineDeliversOps: an event fires its own target with its own op,
// in (time, scheduling) order, and Event.Fire runs one synchronously.
func TestEngineDeliversOps(t *testing.T) {
	e := NewEngine()
	a, b := &opLog{}, &opLog{}
	e.At(2, Event{T: a, Op: 7})
	e.At(1, Event{T: b, Op: 3})
	e.At(1, Event{T: a, Op: 255})
	Event{T: b, Op: 9}.Fire()
	e.Run()
	if fmt.Sprint(a.ops, b.ops) != "[255 7] [9 3]" {
		t.Fatalf("ops fired: a=%v b=%v, want a=[255 7] b=[9 3]", a.ops, b.ops)
	}
}

// TestEngineScheduleZeroAllocs: scheduling a pointer target and firing
// it allocates nothing once the arena has warmed up.
func TestEngineScheduleZeroAllocs(t *testing.T) {
	e := NewEngine()
	l := &opLog{ops: make([]uint8, 0, 1)}
	ev := Event{T: l, Op: 1}
	allocs := testing.AllocsPerRun(100, func() {
		l.ops = l.ops[:0]
		e.After(5, ev)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per schedule+fire, want 0", allocs)
	}
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, Func(func() {}))
}

// Property: for any set of (time, id) pairs, the engine fires them sorted
// by time with ties broken by insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, tt := range times {
			at := Time(tt)
			i := i
			e.At(at, Func(func() { fired = append(fired, rec{at, i}) }))
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestEngineCancelProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n%64) + 1
		fired := make([]bool, total)
		handles := make([]Handle, total)
		for i := 0; i < total; i++ {
			i := i
			handles[i] = e.At(Time(rng.Intn(50)), Func(func() { fired[i] = true }))
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				handles[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < total; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), Func(func() {}))
		if e.Pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}

func TestEngineFired(t *testing.T) {
	e := NewEngine()
	e.At(1, Func(func() {}))
	e.At(2, Func(func() {}))
	e.Run()
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

func TestCyclesPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cycles(-1, ...) did not panic")
		}
	}()
	Cycles(-1, Gigahertz)
}

func TestTimeStringSubNanosecond(t *testing.T) {
	if got := (750 * Picosecond).String(); got != "750ps" {
		t.Fatalf("String = %q", got)
	}
	if got := Hertz(500).String(); got != "500Hz" {
		t.Fatalf("Hertz String = %q", got)
	}
	if got := (3 * Kilohertz).String(); got != "3kHz" {
		t.Fatalf("kHz String = %q", got)
	}
}
