// Package workloads is the scenario engine: a registry of named,
// parameterized task-graph constructors that every CLI and the public
// API resolve workload specs against ("dedup",
// "layered:seed=7,width=16,depth=32", "trace:file=capture.json").
//
// Three families are registered. First, generators for the six PARSECSs
// benchmarks the paper evaluates (§IV): blackscholes and swaptions
// (fork-join), fluidanimate (3D stencil), and bodytrack, dedup and
// ferret (pipelines). We do not ship PARSEC code or inputs; each
// generator reproduces the published characteristics the
// paper's analysis relies on — the parallelism pattern, criticality
// annotations, inter-type duration ratios, IO-bound critical stages,
// granularity and imbalance. Second, five seeded synthetic DAG shapes
// (layered, forkjoin, pipeline, wavefront, chain) with tunable width,
// depth and cost skew, for exploring the criticality space beyond
// hand-picked graphs. Third, importers that replay externally captured
// task graphs from JSON traces or Graphviz DOT files.
//
// All draws come from seeded deterministic streams (internal/xrand): the
// same spec and seed always generate a byte-identical program, which is
// what makes batch sweeps resumable and cache keys content-addressed.
package workloads

import (
	"fmt"
	"sort"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
	"cata/internal/xrand"
)

// Workload generates a Program.
type Workload interface {
	// Name is the benchmark name, lowercase (e.g. "dedup").
	Name() string
	// Description summarizes structure and why the paper's mechanisms
	// engage (or not) on it.
	Description() string
	// Build generates the program. scale in (0, 1] shrinks task counts
	// (not task sizes), preserving the structure for fast tests; 1.0 is
	// the experiment size.
	Build(seed uint64, scale float64) *program.Program
}

// All returns the six benchmarks in the paper's presentation order.
func All() []Workload {
	return []Workload{
		Blackscholes{},
		Swaptions{},
		Fluidanimate{},
		Bodytrack{},
		Dedup{},
		Ferret{},
	}
}

// Names returns the six paper benchmark names in presentation order —
// the single source for every list that walks All() by name (figure
// matrices, perf suite, golden fixtures).
func Names() []string {
	ws := All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	return names
}

// ByName returns the workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	names := make([]string, 0, len(All()))
	for _, w := range All() {
		names = append(names, w.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, names)
}

// builder accumulates a program with token bookkeeping and duration
// helpers shared by all generators.
type builder struct {
	p    *program.Program
	rng  xrand.Source
	next tdg.Token
}

// newBuilder starts a program whose draws come from the seed's
// sub-stream named after the program. The builder itself, rng included,
// is small enough to live on its caller's stack.
func newBuilder(name string, seed uint64) *builder {
	// Token 0 is reserved as "never used" to catch bugs.
	b := &builder{p: &program.Program{Name: name}, next: 1}
	b.rng.SeedStream(seed, name)
	return b
}

// token allocates a fresh datum token.
func (b *builder) token() tdg.Token {
	t := b.next
	b.next++
	return t
}

// tokens allocates n fresh tokens.
func (b *builder) tokens(n int) []tdg.Token {
	ts := make([]tdg.Token, n)
	for i := range ts {
		ts[i] = b.token()
	}
	return ts
}

// task appends a task whose duration at the slow level (1 GHz) is slowDur,
// split into a frequency-scaled cycle component and a frequency-invariant
// memory component by memFrac (the fraction of time stalled on memory).
func (b *builder) task(tt *tdg.TaskType, slowDur sim.Time, memFrac float64, ins, outs []tdg.Token, io sim.Time) {
	if slowDur <= 0 {
		panic(fmt.Sprintf("workloads: non-positive duration for %s", tt.Name))
	}
	if memFrac < 0 || memFrac > 1 {
		panic(fmt.Sprintf("workloads: memFrac %v out of range", memFrac))
	}
	mem := sim.Time(float64(slowDur) * memFrac)
	cycles := int64((slowDur - mem) / sim.Gigahertz.Period())
	if cycles == 0 && mem == 0 {
		cycles = 1
	}
	b.p.AddTask(program.TaskSpec{
		Type:      tt,
		CPUCycles: cycles,
		MemTime:   mem,
		IOTime:    io,
		Ins:       ins,
		Outs:      outs,
	})
}

// barrier appends a taskwait.
func (b *builder) barrier() { b.p.AddBarrier() }

// scaled returns max(1, round(n*scale)), clamping scale into (0, 1].
func scaled(n int, scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// jitterDur samples base scaled uniformly within ±frac.
func (b *builder) jitterDur(base sim.Time, frac float64) sim.Time {
	return sim.Time(b.rng.Jitter(float64(base), frac))
}

// lognormDur samples a log-normal duration with the given mean and sigma,
// clamped to [mean/8, mean*12] to keep tails physical.
func (b *builder) lognormDur(mean sim.Time, sigma float64) sim.Time {
	v := sim.Time(b.rng.LogNormalMean(float64(mean), sigma))
	if min := mean / 8; v < min {
		v = min
	}
	if max := mean * 12; v > max {
		v = max
	}
	return v
}
