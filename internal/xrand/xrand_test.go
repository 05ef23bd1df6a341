package xrand

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestStreamIndependence(t *testing.T) {
	root := New(7)
	s1 := root.Stream("cores")
	s2 := root.Stream("tasks")
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("differently named streams produced the same first draw")
	}
	// Deriving a stream must not advance the parent.
	before := New(7)
	_ = before.Stream("anything")
	after := New(7)
	if before.Uint64() != after.Uint64() {
		t.Fatal("Stream() advanced the parent source")
	}
	// Same name, same seed => same stream.
	r1 := New(7).Stream("x").Uint64()
	r2 := New(7).Stream("x").Uint64()
	if r1 != r2 {
		t.Fatal("same-named streams differ")
	}
}

// TestSeedInPlaceMatchesNew: reseeding a Source held by value yields
// the very streams New and Stream return, and allocates nothing.
func TestSeedInPlaceMatchesNew(t *testing.T) {
	same := func(what string, got *Source, want *Source) {
		t.Helper()
		for k := 0; k < 8; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s: draw %d = %#x, want %#x", what, k, g, w)
			}
		}
	}
	for _, seed := range []uint64{0, 1, 42, 1<<64 - 1} {
		var s Source
		s.Seed(seed)
		same(fmt.Sprintf("Seed(%d)", seed), &s, New(seed))
		s.SeedStream(seed, "workloads")
		same(fmt.Sprintf("SeedStream(%d)", seed), &s, New(seed).Stream("workloads"))
		for _, i := range []int{0, 7, 10, 12345, -3, 1<<63 - 1, -1 << 63} {
			s.SeedStreamIndexed(seed, "opensys.job.", i)
			same(fmt.Sprintf("SeedStreamIndexed(%d, %d)", seed, i), &s,
				New(seed).Stream(fmt.Sprintf("opensys.job.%d", i)))
		}
	}
	var s Source
	if n := testing.AllocsPerRun(100, func() { s.SeedStreamIndexed(42, "opensys.job.", 12345) }); n != 0 {
		t.Fatalf("SeedStreamIndexed allocated %v times, want 0", n)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[s.Intn(10)]++
	}
	for d, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) digit %d count %d far from uniform", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Fatalf("Normal stddev = %v, want ~3", std)
	}
}

func TestLogNormalMean(t *testing.T) {
	s := New(13)
	const n = 300000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.LogNormalMean(50, 0.8)
		if v <= 0 {
			t.Fatalf("LogNormalMean produced non-positive %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-50) > 1.5 {
		t.Fatalf("LogNormalMean empirical mean = %v, want ~50", mean)
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(5)
		if v < 0 {
			t.Fatalf("Exp produced negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~5", mean)
	}
}

func TestPerm(t *testing.T) {
	s := New(19)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestUniformRangeProperty(t *testing.T) {
	f := func(seed uint64, a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := New(seed).Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitter(t *testing.T) {
	s := New(23)
	for i := 0; i < 1000; i++ {
		v := s.Jitter(100, 0.05)
		if v < 95 || v > 105 {
			t.Fatalf("Jitter(100, 0.05) = %v out of range", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate = %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkLogNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.LogNormalMean(50, 0.5)
	}
}

func TestInt63AndInt64n(t *testing.T) {
	s := New(31)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 negative: %d", v)
		}
		if v := s.Int64n(1_000_000_007); v < 0 || v >= 1_000_000_007 {
			t.Fatalf("Int64n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(0) did not panic")
		}
	}()
	s.Int64n(0)
}
