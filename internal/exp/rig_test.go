package exp

import (
	"errors"
	"testing"
)

// TestBuildRigBindsNothingPerCore pins what a rig costs to build per
// core. Every layer keeps its per-core state in one slab and names it as
// the target of its events, and the machine's cores are a slab too, so
// adding cores adds no allocation of its own. What remains is the
// engine's arena and heap growing by doubling under the boot-time
// events, a fraction of an allocation per core.
func TestBuildRigBindsNothingPerCore(t *testing.T) {
	const maxPerCore = 0.25
	for _, pol := range []Policy{FIFO, CATA, CATARSU, CATA3L} {
		allocs := func(cores int) float64 {
			spec := RunSpec{Workload: "swaptions", Policy: pol, Cores: cores, FastCores: cores / 4, Scale: 0.05}.withDefaults()
			prog, err := buildProgram(spec)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := buildRig(spec, programHolder{prog: prog}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a8, a32 := allocs(8), allocs(32)
		if slope := (a32 - a8) / 24; slope > maxPerCore {
			t.Errorf("%s: building a rig allocates %v times at 8 cores and %v at 32: %.2f per core, want at most %v",
				pol, a8, a32, slope, maxPerCore)
		}
	}
}

// TestFastCoresOutOfRangeIsAnError: a budget outside [0, Cores], or a
// negative core count, fails the run with an error naming the field,
// under every policy, instead of panicking inside a mechanism's
// constructor.
func TestFastCoresOutOfRangeIsAnError(t *testing.T) {
	for _, pol := range append(AllPolicies(), ExtensionPolicies()...) {
		for _, tc := range []struct {
			cores, fast int
			field       string
		}{
			{32, -1, "fast_cores"},
			{32, 33, "fast_cores"},
			{0, 40, "fast_cores"}, // default 32 cores
			{-4, 0, "cores"},
		} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s %+v: panicked: %v", pol, tc, p)
					}
				}()
				_, err := Run(RunSpec{Workload: "swaptions", Policy: pol, Cores: tc.cores, FastCores: tc.fast, Scale: 0.05})
				var fe *FieldError
				if !errors.As(err, &fe) || fe.Field != tc.field {
					t.Errorf("%s %+v: err = %v, want a %s FieldError", pol, tc, err, tc.field)
				}
			}()
		}
	}
}
