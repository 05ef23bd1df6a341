package opensys

import (
	"errors"
	"testing"

	"cata/internal/sim"
	"cata/internal/spec"
)

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want Process
	}{
		{"poisson:lambda=2000", Process{Kind: KindPoisson, Lambda: 2000, Jobs: 16}},
		{"fixed:interval=500us", Process{Kind: KindFixed, Interval: 500 * sim.Microsecond, Jobs: 16}},
		{
			"poisson:lambda=1500.5,jobs=40,deadline=5ms,cap=8,window=100ms",
			Process{Kind: KindPoisson, Lambda: 1500.5, Jobs: 40,
				Deadline: 5 * sim.Millisecond, Cap: 8, Window: 100 * sim.Millisecond},
		},
		{"POISSON: jobs=4, lambda=2000", Process{Kind: KindPoisson, Lambda: 2000, Jobs: 4}},
		{
			"fixed: interval=1ms , jobs=3 ",
			Process{Kind: KindFixed, Interval: sim.Millisecond, Jobs: 3},
		},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		key  string // when set, the error is a *spec.Error naming this key
	}{
		{"", ""},                                          // no kind
		{"uniform:lo=1,hi=2", ""},                         // unknown kind
		{"poisson", ""},                                   // missing lambda
		{"poisson:", ""},                                  // colon without params
		{"poisson:lambda=0", "lambda"},                    // non-positive rate
		{"poisson:lambda=2000,lambda=3", "lambda"},        // duplicate key
		{"poisson:lambda=2000,burst=4", "burst"},          // unknown key
		{"poisson:lambda=2000,jobs=0", "jobs"},            // jobs < 1
		{"poisson:lambda=2000,jobs", ""},                  // not key=val
		{"poisson:lambda=2000,deadline=nope", "deadline"}, // bad duration
		{"poisson:lambda=2000,deadline=-5ms", "deadline"}, // negative duration
		{"fixed:interval=0s", "interval"},                 // non-positive interval
		{"fixed:lambda=2000", "lambda"},                   // rate on fixed process
		// Values must parse completely: no silent truncation.
		{"poisson:lambda=2000,jobs=1e3", "jobs"},
		{"poisson:lambda=2000abc", "lambda"},
		{"poisson:lambda=2000,cap=3.5", "cap"},
		{"poisson:lambda=2000,deadline=-1ms", "deadline"},
		{"poisson:lambda=NaN", "lambda"},
		{"poisson:lambda=2000,window=1000000h", "window"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.spec)
			continue
		}
		if c.key == "" {
			continue
		}
		var se *spec.Error
		if !errors.As(err, &se) || se.Kind != "arrivals" || se.Key != c.key {
			t.Errorf("Parse(%q) = %v, want an arrivals *spec.Error naming %q", c.spec, err, c.key)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	specs := []string{
		"poisson:lambda=2000,jobs=16",
		"poisson:lambda=1500.5,jobs=40,deadline=5ms,cap=8,window=100ms",
		"fixed:interval=500µs,jobs=16",
		"fixed:interval=1ms,jobs=3,deadline=2ms",
	}
	for _, s := range specs {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("Parse(%q).String() = %q, want canonical input back", s, got)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String()) of %q: %v", s, err)
		}
		if back != p {
			t.Errorf("round trip of %q: %+v != %+v", s, back, p)
		}
	}
}

func TestScheduleFixed(t *testing.T) {
	p := Process{Kind: KindFixed, Interval: 250 * sim.Microsecond, Jobs: 4}
	got := p.Schedule(1)
	want := []sim.Time{0, 250 * sim.Microsecond, 500 * sim.Microsecond, 750 * sim.Microsecond}
	if len(got) != len(want) {
		t.Fatalf("Schedule length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Fixed schedules ignore the seed entirely.
	other := p.Schedule(99)
	for i := range want {
		if other[i] != want[i] {
			t.Errorf("seed-dependent fixed arrival %d: %v != %v", i, other[i], want[i])
		}
	}
}

// TestScheduleGoldenDeterminism pins the satellite requirement: the same
// (spec, seed) pair must yield a byte-identical arrival schedule, every
// time, while different seeds diverge.
func TestScheduleGoldenDeterminism(t *testing.T) {
	p, err := Parse("poisson:lambda=2000,jobs=64")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Schedule(42), p.Schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %v != %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not nondecreasing at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	c := p.Schedule(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical schedule")
	}
	// Mean interarrival gap should be in the ballpark of 1/lambda = 500us
	// (64 samples: accept a wide band, this is a sanity check not a
	// statistical test).
	mean := float64(a[len(a)-1]) / float64(len(a))
	want := float64(sim.Second) / p.Lambda
	if mean < want/3 || mean > want*3 {
		t.Errorf("mean gap %.0f ps implausible for lambda=%g (want near %.0f)", mean, p.Lambda, want)
	}
}

func TestJobSeedsIndependent(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 100; i++ {
		s := JobSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("jobs %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if JobSeed(42, 0) != JobSeed(42, 0) {
		t.Fatal("JobSeed not deterministic")
	}
	if JobSeed(42, 0) == JobSeed(43, 0) {
		t.Fatal("JobSeed ignores the run seed")
	}
	// Pinned: per-job seeds decide every open run's DAGs, so a change in
	// how they are derived must not go unnoticed.
	for _, c := range []struct {
		seed uint64
		job  int
		want uint64
	}{{42, 0, 0xfe02be9a65f2ead5}, {42, 3, 0xab653d6c8258bd6a}, {7, 1234, 0xe98a2e22ddd21d74}} {
		if got := JobSeed(c.seed, c.job); got != c.want {
			t.Errorf("JobSeed(%d, %d) = %#x, want %#x", c.seed, c.job, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { JobSeed(42, 1234) }); n != 0 {
		t.Errorf("JobSeed allocated %v times, want 0", n)
	}
}

func TestCollectorReport(t *testing.T) {
	p := Process{Kind: KindFixed, Interval: sim.Millisecond, Jobs: 4,
		Deadline: 2 * sim.Millisecond, Cap: 2, Window: 10 * sim.Millisecond}
	c := NewCollector(p)
	c.Admit(0, 0)
	c.Admit(1, sim.Millisecond)
	c.Shed(2, 2*sim.Millisecond)
	c.Done(0, 0, sim.Millisecond)                 // response 1ms, meets deadline
	c.Done(1, sim.Millisecond, 4*sim.Millisecond) // response 3ms, misses
	c.Admit(3, 3*sim.Millisecond)
	c.Done(3, 3*sim.Millisecond, 4*sim.Millisecond) // response 1ms
	r := c.Report(2.0)

	if r.JobsArrived != 4 || r.JobsCompleted != 3 || r.JobsShed != 1 {
		t.Fatalf("accounting: %+v", r)
	}
	if r.JobsShed+r.JobsCompleted != r.JobsArrived {
		t.Fatalf("shed %d + completed %d != arrived %d", r.JobsShed, r.JobsCompleted, r.JobsArrived)
	}
	if r.DeadlineMissed != 1 {
		t.Fatalf("DeadlineMissed = %d, want 1", r.DeadlineMissed)
	}
	if want := 1.0 / 3.0; r.MissRate != want {
		t.Fatalf("MissRate = %g, want %g", r.MissRate, want)
	}
	if r.PeakInSystem != 2 {
		t.Fatalf("PeakInSystem = %d, want 2", r.PeakInSystem)
	}
	if r.MaxResponse != 3*sim.Millisecond {
		t.Fatalf("MaxResponse = %v, want 3ms", r.MaxResponse)
	}
	if want := (1 + 3 + 1) * sim.Millisecond / 3; r.MeanResponse != want {
		t.Fatalf("MeanResponse = %v, want %v", r.MeanResponse, want)
	}
	if !(r.P50 <= r.P99 && r.P99 <= r.P999) {
		t.Fatalf("percentiles not monotone: p50=%v p99=%v p999=%v", r.P50, r.P99, r.P999)
	}
	if want := 2.0 * r.P99.Seconds(); r.TailEDP != want {
		t.Fatalf("TailEDP = %g, want %g", r.TailEDP, want)
	}
	if len(r.Windows) != 1 {
		t.Fatalf("windows: %+v", r.Windows)
	}
	w := r.Windows[0]
	if w.Start != 0 || w.End != 10*sim.Millisecond || w.Completed != 3 {
		t.Fatalf("window bounds/count: %+v", w)
	}
}
