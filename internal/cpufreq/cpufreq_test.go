package cpufreq

import (
	"testing"

	"cata/internal/energy"
	"cata/internal/machine"
	"cata/internal/sim"
)

func newRig(t *testing.T) (*sim.Engine, *machine.Machine, *Framework) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := machine.TableIConfig()
	cfg.Cores = 4
	m, err := machine.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m, New(eng, m, DefaultCosts())
}

func TestLockImmediateGrant(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLock(eng)
	granted := false
	l.Acquire(sim.Func(func() { granted = true }))
	if !granted || !l.Held() {
		t.Fatal("free lock should grant synchronously")
	}
	l.Release()
	if l.Held() {
		t.Fatal("lock still held after release")
	}
	total, contended := l.Acquisitions()
	if total != 1 || contended != 0 {
		t.Fatalf("acquisitions = %d/%d", total, contended)
	}
}

func TestLockFIFOGrantOrder(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLock(eng)
	var order []int
	l.Acquire(sim.Func(func() { order = append(order, 0) }))
	for i := 1; i <= 3; i++ {
		i := i
		l.Acquire(sim.Func(func() { order = append(order, i) }))
	}
	if l.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d", l.QueueLen())
	}
	for i := 0; i < 3; i++ {
		l.Release()
	}
	l.Release()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v", order)
		}
	}
}

func TestLockWaitTimes(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLock(eng)
	l.Acquire(sim.Func(func() {}))
	var waitedUntil sim.Time
	eng.At(10*sim.Microsecond, sim.Func(func() {
		l.Acquire(sim.Func(func() { waitedUntil = eng.Now() }))
	}))
	eng.At(35*sim.Microsecond, sim.Func(func() { l.Release() }))
	eng.Run()
	if waitedUntil != 35*sim.Microsecond {
		t.Fatalf("second grant at %v, want 35µs", waitedUntil)
	}
	if got := l.WaitTimes().MaxTime(); got != 25*sim.Microsecond {
		t.Fatalf("max wait = %v, want 25µs", got)
	}
	if got := l.HoldTimes().MaxTime(); got != 35*sim.Microsecond {
		t.Fatalf("max hold = %v, want 35µs", got)
	}
	_, contended := l.Acquisitions()
	if contended != 1 {
		t.Fatalf("contended = %d", contended)
	}
}

func TestLockReleaseFreePanics(t *testing.T) {
	l := NewLock(sim.NewEngine())
	defer func() {
		if recover() == nil {
			t.Fatal("Release of free lock did not panic")
		}
	}()
	l.Release()
}

func TestWriteChangesTargetAndCostsTime(t *testing.T) {
	eng, m, f := newRig(t)
	var doneAt sim.Time
	// Core 0 must be busy (worker context) to issue cpufreq writes.
	m.Core(0).Exec(0, 0, sim.Func(func() {
		f.Write(0, 2, energy.Fast, sim.Func(func() { doneAt = eng.Now() }))
	}))
	eng.Run()
	if m.DVFS.Target(2) != energy.Fast {
		t.Fatal("target not committed")
	}
	if m.DVFS.Actual(2) != energy.Fast {
		t.Fatal("transition never landed")
	}
	// Software path at 1 GHz: 2.5µs + 3µs + 1µs fixed + 1µs = 7.5µs.
	if doneAt != 7500*sim.Nanosecond {
		t.Fatalf("syscall returned at %v, want 7.5µs", doneAt)
	}
	if f.Writes() != 1 {
		t.Fatalf("Writes = %d", f.Writes())
	}
	if f.WriteLatency().MeanTime() != 7500*sim.Nanosecond {
		t.Fatalf("mean latency = %v", f.WriteLatency().MeanTime())
	}
}

func TestWriteSoftwarePathScalesWithCallerFreq(t *testing.T) {
	eng, m, f := newRig(t)
	m.SetHeterogeneous(1) // caller core 0 fast
	var doneAt sim.Time
	m.Core(0).Exec(0, 0, sim.Func(func() {
		f.Write(0, 2, energy.Fast, sim.Func(func() { doneAt = eng.Now() }))
	}))
	eng.Run()
	// At 2 GHz: 1.25µs + 1.5µs + 1µs fixed + 0.5µs = 4.25µs.
	if doneAt != 4250*sim.Nanosecond {
		t.Fatalf("syscall returned at %v, want 4.25µs", doneAt)
	}
}

func TestConcurrentWritesSerialize(t *testing.T) {
	eng, m, f := newRig(t)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		m.Core(i).Exec(0, 0, sim.Func(func() {
			f.Write(i, 3, energy.Fast, sim.Func(func() { done = append(done, eng.Now()) }))
		}))
	}
	eng.Run()
	if len(done) != 3 {
		t.Fatalf("completed %d writes", len(done))
	}
	// Each write holds the lock for 3µs+1µs = 4µs at 1 GHz. With 2.5µs
	// entry and 1µs return, write k returns at 2.5 + 4(k+1) + 1 µs.
	want := []sim.Time{7500 * sim.Nanosecond, 11500 * sim.Nanosecond, 15500 * sim.Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("write %d returned at %v, want %v (got %v)", i, done[i], want[i], done)
		}
	}
	_, contended := f.DriverLock().Acquisitions()
	if contended != 2 {
		t.Fatalf("contended = %d, want 2", contended)
	}
	if f.DriverLock().WaitTimes().MaxTime() != 8*sim.Microsecond {
		t.Fatalf("max wait = %v, want 8µs", f.DriverLock().WaitTimes().MaxTime())
	}
}

func TestWriteOutOfRangePanics(t *testing.T) {
	_, _, f := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	f.Write(0, 99, energy.Fast, sim.Func(func() {}))
}

func TestCallerLatencyAttribution(t *testing.T) {
	eng, m, f := newRig(t)
	m.Core(0).Exec(0, 0, sim.Func(func() {
		f.Write(0, 1, energy.Fast, sim.Func(func() {}))
	}))
	eng.Run()
	if f.CallerLatency(0).Count() != 1 {
		t.Fatalf("caller 0 latencies = %d", f.CallerLatency(0).Count())
	}
	if f.CallerLatency(1).Count() != 0 {
		t.Fatal("latency attributed to the wrong caller")
	}
	if f.CallerLatency(0).MeanTime() != f.WriteLatency().MeanTime() {
		t.Fatal("single-writer caller latency must equal global latency")
	}
}

// TestWriteZeroAllocs pins the write path's stage events: in steady
// state a policy write — kernel entry, driver lock, DVFS
// request, the transition landing, return, and the periodic
// housekeeping it arms — allocates nothing.
func TestWriteZeroAllocs(t *testing.T) {
	eng, m, f := newRig(t)
	level := energy.Fast
	done := sim.Func(func() {})
	write := sim.Func(func() { f.Write(0, 2, level, done) })
	allocs := testing.AllocsPerRun(100, func() {
		m.Core(0).Exec(0, 0, write)
		eng.Run()
		if m.DVFS.Actual(2) != level {
			t.Fatalf("write to %v never landed", level)
		}
		if level == energy.Fast {
			level = energy.Slow
		} else {
			level = energy.Fast
		}
	})
	if allocs != 0 {
		t.Fatalf("Write allocates %v times per call, want 0", allocs)
	}
}

// TestOverlappingWritesPanic: a core issues one write at a time.
func TestOverlappingWritesPanic(t *testing.T) {
	_, _, f := newRig(t)
	f.Write(0, 1, energy.Fast, sim.Func(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("second write from a core with a write in flight did not panic")
		}
	}()
	f.Write(0, 2, energy.Fast, sim.Func(func() {}))
}
