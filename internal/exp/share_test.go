package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"cata/internal/program"
	"cata/internal/spec"
	"cata/internal/workloads"
)

// buildCounts counts builds of the "buildcount" test workload per
// (tag, seed, scale), so each test reads only the builds it caused;
// tests compare counts before and after, so they can repeat.
var buildCounts = struct {
	sync.Mutex
	n map[string]int
}{n: map[string]int{}}

func buildKey(tag int, seed uint64, scale float64) string {
	return fmt.Sprintf("%d/%d/%g", tag, seed, scale)
}

// buildsOf snapshots the build counts of tag's seeds at scale 0.1 and
// returns a function reporting how many builds each seed has had since.
func buildsOf(tag int, seeds ...uint64) func(seed uint64) int {
	count := func(seed uint64) int {
		buildCounts.Lock()
		defer buildCounts.Unlock()
		return buildCounts.n[buildKey(tag, seed, 0.1)]
	}
	before := map[uint64]int{}
	for _, s := range seeds {
		before[s] = count(s)
	}
	return func(seed uint64) int { return count(seed) - before[seed] }
}

// init registers "buildcount": swaptions, counting its builds under the
// spec's tag and failing the build for the seed named by fail.
func init() {
	workloads.Register(workloads.Entry{
		Name:        "buildcount",
		Description: "test workload: swaptions, counting builds per tag",
		Params: []spec.ParamDoc{
			{Key: "tag", Kind: spec.Int, Default: "0", Help: "build counter"},
			{Key: "fail", Kind: spec.Uint, Default: "0", Help: "seed whose build fails (0: none)"},
		},
		Build: func(p spec.Params, seed uint64, scale float64) (*program.Program, error) {
			buildCounts.Lock()
			buildCounts.n[buildKey(p.Int("tag", 0), seed, scale)]++
			buildCounts.Unlock()
			if f := p.Uint64("fail", 0); f != 0 && f == seed {
				return nil, fmt.Errorf("buildcount: seed %d does not build", seed)
			}
			return workloads.Build("swaptions", seed, scale)
		},
	})
}

// interleavedSpecs crosses seeds with policies and budgets, policy
// outermost, so consecutive specs never share a program.
func interleavedSpecs(workload string, seeds []uint64) []RunSpec {
	var specs []RunSpec
	for _, p := range []Policy{FIFO, CATA, CATARSU, CATSBL} {
		for _, fast := range []int{4, 8} {
			for _, seed := range seeds {
				specs = append(specs, RunSpec{
					Workload: workload, Policy: p, FastCores: fast,
					Cores: 16, Seed: seed, Scale: 0.1,
				})
			}
		}
	}
	return specs
}

// TestSweepBuildsEachProgramOnce: a parallel sweep builds every
// (workload, seed, scale) once, however its cells interleave, and its
// results are byte-identical to running every spec alone.
func TestSweepBuildsEachProgramOnce(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	specs := interleavedSpecs("buildcount:tag=1", seeds)
	builds := buildsOf(1, seeds...)
	rs, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		if n := builds(seed); n != 1 {
			t.Errorf("seed %d built %d times, want once", seed, n)
		}
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("%v: %v", r.Spec, r.Err)
		}
		m, err := Run(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(r.Value)
		want, _ := json.Marshal(m)
		if !bytes.Equal(got, want) {
			t.Errorf("%v:\nsweep %s\nalone %s", r.Spec, got, want)
		}
	}
}

// TestSweepBuildFailureFailsItsCells: a program that fails to build
// fails exactly its own cells, each with the error a lone Run reports,
// and is attempted once.
func TestSweepBuildFailureFailsItsCells(t *testing.T) {
	specs := interleavedSpecs("buildcount:tag=2,fail=2", []uint64{1, 2})
	builds := buildsOf(2, 2)
	rs, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, want := Run(specs[1])
	if want == nil {
		t.Fatal("seed 2 built alone")
	}
	for _, r := range rs {
		switch {
		case r.Spec.Seed == 2 && (r.Err == nil || r.Err.Error() != want.Error()):
			t.Errorf("%v: error %v, want %v", r.Spec, r.Err, want)
		case r.Spec.Seed != 2 && r.Err != nil:
			t.Errorf("%v failed with its neighbour's program: %v", r.Spec, r.Err)
		}
	}
	if n := builds(2); n != 2 {
		t.Errorf("failing program attempted %d times (sweep and lone Run), want 2", n)
	}
}

// TestSweepCachedCellsBuildNothing: cells served from the result cache
// never build their program; a program is built only for the cells that
// still have to run.
func TestSweepCachedCellsBuildNothing(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache.jsonl")
	specs := interleavedSpecs("buildcount:tag=3", []uint64{1, 2})
	builds := buildsOf(3, 1, 2)
	opts := SweepOptions{Parallelism: 4, CachePath: cache, Resume: true}
	if _, err := Sweep(context.Background(), specs, opts); err != nil {
		t.Fatal(err)
	}
	if builds(1) != 1 || builds(2) != 1 {
		t.Fatalf("first sweep: builds %d/%d, want 1/1", builds(1), builds(2))
	}
	extra := RunSpec{Workload: "buildcount:tag=3", Policy: CATA, FastCores: 2, Cores: 16, Seed: 1, Scale: 0.1}
	rs, err := Sweep(context.Background(), append(specs, extra), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs[:len(specs)] {
		if r.Err != nil || !r.Cached {
			t.Fatalf("%v: cached=%v err=%v, want a cache hit", r.Spec, r.Cached, r.Err)
		}
	}
	if r := rs[len(specs)]; r.Err != nil || r.Cached {
		t.Fatalf("new cell: cached=%v err=%v", r.Cached, r.Err)
	}
	if b1, b2 := builds(1), builds(2); b1 != 2 || b2 != 1 {
		t.Fatalf("resumed sweep: builds %d/%d, want 2/1 (only the new cell's program)", b1, b2)
	}
}
