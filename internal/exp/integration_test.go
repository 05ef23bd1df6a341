package exp

// Integration tests: full applications under full policies, with
// invariants sampled continuously while the simulation runs — the
// checks that span modules.

import (
	"testing"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/workloads"
)

// sampleDuringRun builds a rig, arms a periodic sampler, runs to
// completion and returns the number of samples taken.
func sampleDuringRun(t *testing.T, spec RunSpec, every sim.Time, sample func(*rig)) int {
	t.Helper()
	spec = spec.withDefaults()
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := program.Compile(w.Build(spec.Seed, spec.Scale))
	if err != nil {
		t.Fatal(err)
	}
	r, err := buildRig(spec, programHolder{prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	var tick sim.Event
	tick = sim.Func(func() {
		samples++
		sample(r)
		r.eng.After(every, tick)
	})
	r.eng.After(every, tick)
	if _, err := r.runtime.Run(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestBudgetInvariantDuringFullRuns: at no point during a CATA, CATA+RSU
// or TurboMode run may the committed fast-core count exceed the budget.
func TestBudgetInvariantDuringFullRuns(t *testing.T) {
	for _, policy := range []Policy{CATA, CATARSU, TURBO, CATARSUHA} {
		for _, w := range []string{"swaptions", "dedup"} {
			const budget = 3
			violations := 0
			n := sampleDuringRun(t, RunSpec{
				Workload: w, Policy: policy, FastCores: budget,
				Cores: 8, Scale: 0.15,
			}, 50*sim.Microsecond, func(r *rig) {
				if r.mach.DVFS.CommittedFast() > budget {
					violations++
				}
				if r.rsmMod != nil && r.rsmMod.Table().Used() > budget {
					violations++
				}
				if r.rsuUnit != nil && r.rsuUnit.Table().Used() > budget {
					violations++
				}
				if r.turboC != nil && r.turboC.AcceleratedCount() > budget {
					violations++
				}
			})
			if n < 10 {
				t.Fatalf("%v/%s: only %d samples — run too short to mean anything", policy, w, n)
			}
			if violations > 0 {
				t.Errorf("%v/%s: %d budget violations across %d samples", policy, w, violations, n)
			}
		}
	}
}

// TestUnitBudgetInvariantDuringMLRun: the multi-level extension's
// power-unit pool is never oversubscribed mid-run.
func TestUnitBudgetInvariantDuringMLRun(t *testing.T) {
	const fastCores = 3 // pool = 6 units
	violations := 0
	n := sampleDuringRun(t, RunSpec{
		Workload: "swaptions", Policy: CATA3L, FastCores: fastCores,
		Cores: 8, Scale: 0.15,
	}, 50*sim.Microsecond, func(r *rig) {
		if tab := r.rsuUnit.Table(); tab.Used() > tab.Budget() {
			violations++
		}
	})
	if n < 10 || violations > 0 {
		t.Fatalf("%d violations across %d samples", violations, n)
	}
}

// TestProgressMonotonic: the completed-task count never decreases and
// the graph drains exactly once.
func TestProgressMonotonic(t *testing.T) {
	last := -1
	sampleDuringRun(t, RunSpec{
		Workload: "ferret", Policy: CATA, FastCores: 3, Cores: 8, Scale: 0.15,
	}, 100*sim.Microsecond, func(r *rig) {
		done := r.runtime.Graph().Completed()
		if done < last {
			t.Fatalf("completed count went backwards: %d -> %d", last, done)
		}
		last = done
	})
	if last <= 0 {
		t.Fatal("no progress observed")
	}
}

// TestEnergyWithinPhysicalBounds: total energy for every policy lies
// between the all-idle and all-fast-active chip envelopes.
func TestEnergyWithinPhysicalBounds(t *testing.T) {
	for _, policy := range append(AllPolicies(), ExtensionPolicies()...) {
		m, err := Run(RunSpec{
			Workload: "bodytrack", Policy: policy, FastCores: 3, Cores: 8, Scale: 0.15,
		})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		secs := m.Makespan.Seconds()
		// Generous physical envelope: 8 cores, uncore included.
		min := 8 * 0.05 * secs // everything deep-asleep
		max := 8 * 4.0 * secs  // everything fast and active
		if m.Joules < min || m.Joules > max {
			t.Errorf("%v: energy %v J outside [%v, %v] for %v",
				policy, m.Joules, min, max, m.Makespan)
		}
	}
}

// TestSeedPairedDeterminismAcrossPolicies: identical spec -> identical
// measurement, for every policy (the whole stack is deterministic).
func TestSeedPairedDeterminismAcrossPolicies(t *testing.T) {
	for _, policy := range append(AllPolicies(), ExtensionPolicies()...) {
		spec := RunSpec{Workload: "fluidanimate", Policy: policy, FastCores: 3, Cores: 8, Scale: 0.12}
		a, err := Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		b, err := Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if a.Makespan != b.Makespan || a.Joules != b.Joules || a.Transitions != b.Transitions {
			t.Errorf("%v: non-deterministic (%v/%v/%d vs %v/%v/%d)",
				policy, a.Makespan, a.Joules, a.Transitions, b.Makespan, b.Joules, b.Transitions)
		}
	}
}
