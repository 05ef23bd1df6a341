package workloads

import (
	"bytes"
	"testing"

	"cata/internal/program"
)

// syntheticSpecs covers every synthetic shape at a size small enough for
// fast tests but large enough to exercise every structural branch.
var syntheticSpecs = []string{
	"layered:width=6,depth=5",
	"forkjoin:width=8,phases=3",
	"pipeline:items=10,stages=4",
	"wavefront:rows=5,cols=6",
	"chain:length=8,side=3",
}

func mustBuild(t *testing.T, spec string, seed uint64, scale float64) *program.Program {
	t.Helper()
	p, err := Build(spec, seed, scale)
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	return p
}

// encode renders a program to its canonical JSON trace bytes, the
// byte-identity the determinism guarantees are stated in.
func encode(t *testing.T, p *program.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := program.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameProgram(a, b *program.Program) bool {
	var ba, bb bytes.Buffer
	if err := program.WriteJSON(&ba, a); err != nil {
		return false
	}
	if err := program.WriteJSON(&bb, b); err != nil {
		return false
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes())
}

// TestSyntheticDeterminism: the same (spec, seed) always generates a
// byte-identical TDG; different seeds generate distinct ones.
func TestSyntheticDeterminism(t *testing.T) {
	for _, spec := range syntheticSpecs {
		first := encode(t, mustBuild(t, spec, 7, 1.0))
		again := encode(t, mustBuild(t, spec, 7, 1.0))
		if !bytes.Equal(first, again) {
			t.Errorf("%s: same seed produced different programs", spec)
		}
		other := encode(t, mustBuild(t, spec, 8, 1.0))
		if bytes.Equal(first, other) {
			t.Errorf("%s: different seeds produced identical programs", spec)
		}
	}
}

// TestSyntheticValidAndCritical: every shape validates, has both critical
// and non-critical work (so every estimator has something to find), and
// at full default size carries a non-trivial task count.
func TestSyntheticValidAndCritical(t *testing.T) {
	for _, spec := range syntheticSpecs {
		p := mustBuild(t, spec, 42, 1.0)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		crit, plain := 0, 0
		for _, it := range p.Items {
			if it.Task == nil {
				continue
			}
			if it.Task.Type.Criticality > 0 {
				crit++
			} else {
				plain++
			}
		}
		if crit == 0 || plain == 0 {
			t.Errorf("%s: %d critical / %d non-critical tasks; want both", spec, crit, plain)
		}
	}
}

// TestSyntheticDefaultsSized: the default parameter sets produce at least
// a few hundred tasks, comparable to the paper benchmarks.
func TestSyntheticDefaultsSized(t *testing.T) {
	for _, name := range []string{"layered", "forkjoin", "pipeline", "wavefront", "chain"} {
		p := mustBuild(t, name, 42, 1.0)
		if p.Tasks() < 100 {
			t.Errorf("%s: only %d tasks with default parameters", name, p.Tasks())
		}
	}
}

// TestSyntheticScaleShrinks: scale reduces task counts without breaking
// structure.
func TestSyntheticScaleShrinks(t *testing.T) {
	for _, name := range []string{"layered", "forkjoin", "pipeline", "wavefront", "chain"} {
		full := mustBuild(t, name, 42, 1.0)
		small := mustBuild(t, name, 42, 0.25)
		if small.Tasks() >= full.Tasks() {
			t.Errorf("%s: scale 0.25 has %d tasks, full has %d", name, small.Tasks(), full.Tasks())
		}
		if err := small.Validate(); err != nil {
			t.Errorf("%s at scale 0.25: %v", name, err)
		}
	}
}

// TestSyntheticDocumentedParamsAccepted: every documented parameter key
// is actually consumed by its generator — the docs and the accessors
// cannot drift apart.
func TestSyntheticDocumentedParamsAccepted(t *testing.T) {
	for _, e := range List() {
		if e.FileBacked {
			continue
		}
		for _, d := range e.Params {
			var val string
			switch d.Key {
			case "sidedur":
				val = "500"
			case "memfrac":
				val = "0.2"
			case "skew":
				val = "0.3"
			case "dur":
				val = "750"
			default:
				val = "3"
			}
			spec := e.Name + ":" + d.Key + "=" + val
			if _, err := Build(spec, 42, 0.5); err != nil {
				t.Errorf("documented parameter rejected: Build(%q): %v", spec, err)
			}
		}
	}
}

// TestForkJoinBuildAllocsPerProgram: building a fork-join program costs
// four allocations whatever its size — the Program, its items, its task
// specs and its tokens — so an open run's per-job build makes no
// garbage per task.
func TestForkJoinBuildAllocsPerProgram(t *testing.T) {
	for _, s := range []string{"forkjoin:width=8,phases=2,dur=100", "forkjoin:width=64,phases=8"} {
		build, err := Builder(s)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(0)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			if _, err := build(seed, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 4 {
			t.Errorf("%s: %v allocations per build, want 4", s, allocs)
		}
	}
}
