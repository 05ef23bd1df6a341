// Package exp is the experiment harness: it wires complete system
// configurations (machine + scheduler + estimator + reconfiguration
// mechanism), runs workloads across the paper's evaluation matrix, and
// renders the tables behind Figure 4, Figure 5 and the §V-C analysis.
//
// A RunSpec names a workload spec (resolved by internal/workloads), a
// policy spec (resolved by the open registry in internal/policies) and a
// machine; Run executes it and harvests a Measurement. Sweep fans many
// specs through the batch engine (internal/batch) with cancellation,
// bounded parallelism and a content-addressed result cache, and
// RunMatrixSweep assembles the FIFO-normalized matrices the figures are
// built from.
package exp

import (
	"encoding/json"
	"fmt"

	"cata/internal/cpufreq"
	"cata/internal/machine"
	"cata/internal/policies"
	"cata/internal/probe"
	"cata/internal/rsm"
	"cata/internal/rsu"
	"cata/internal/rts"
	"cata/internal/sched"
	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/turbo"
)

// Policy is one system configuration, held as a canonical policy spec
// string (`name` or `name:key=val,...`) resolved by internal/policies.
// The constants below name the built-in configurations with the paper's
// labels; any policy registered with the registry — with or without
// parameters — is an equally valid value. Use ParsePolicy to build one
// from user input: it validates against the registry and canonicalizes,
// so two equal Policy values always mean the same configuration (and
// hash to the same batch cache key).
type Policy string

const (
	// FIFO: baseline FIFO scheduler on a statically heterogeneous
	// machine (N fast cores); criticality-blind (§II-C).
	FIFO Policy = "FIFO"
	// CATSBL: CATS scheduler with dynamic bottom-level criticality [24].
	CATSBL Policy = "CATS+BL"
	// CATSSA: CATS scheduler with static criticality annotations.
	CATSSA Policy = "CATS+SA"
	// CATA: criticality-aware task acceleration in software — CritFirst
	// scheduling plus RSM-driven DVFS through the cpufreq stack (§III-A).
	CATA Policy = "CATA"
	// CATARSU: CATA with the hardware Runtime Support Unit (§III-B).
	CATARSU Policy = "CATA+RSU"
	// TURBO: criticality-blind TurboMode [18] on the FIFO scheduler.
	TURBO Policy = "TurboMode"
	// CATARSUHA: extension beyond the paper — CATA+RSU that releases the
	// budget of cores halted in kernel services and restores it on wake,
	// closing the §V-D gap the paper concedes to TurboMode.
	CATARSUHA Policy = "CATA+RSU-HA"
	// CATA3L: extension beyond the paper — the multi-level acceleration
	// §III leaves as future work: three operating points with a
	// power-unit budget (fast = 2 units, mid = 1).
	CATA3L Policy = "CATA+RSU-3L"
	// AMTHA: registered extension — static task-to-core mapping by
	// accumulated-time list scheduling (De Giusti et al.), the contrast
	// point to CATA's dynamic acceleration.
	AMTHA Policy = "AMTHA"
)

// PolicyDoc describes one policy for help strings, listings and tables.
// The open registry (internal/policies) is the single source of truth
// for the policy set: String, ParsePolicy, AllPolicies,
// ExtensionPolicies, the CLIs' -policy help and the README policy table
// all derive from it (the last enforced by a test), so registered
// policies can never drift apart across lists.
type PolicyDoc struct {
	// Policy is the canonical bare spec (no parameters).
	Policy Policy
	// Label is the policy's display name (the paper's label for the
	// configurations it evaluates).
	Label string
	// Extension marks beyond-the-paper configurations.
	Extension bool
	// Summary is a one-line description.
	Summary string
	// Params documents the policy's typed spec parameters.
	Params []spec.ParamDoc
}

// PolicyDocs returns documentation for every registered policy: paper
// order first, then the extensions, then external registrations.
func PolicyDocs() []PolicyDoc {
	var ds []PolicyDoc
	for _, e := range policies.List() {
		ds = append(ds, PolicyDoc{
			Policy:    Policy(e.Name),
			Label:     e.Name,
			Extension: e.Extension,
			Summary:   e.Summary,
			Params:    e.Params,
		})
	}
	return ds
}

// Fig4Policies are the software-only configurations of Figure 4.
func Fig4Policies() []Policy { return []Policy{FIFO, CATSBL, CATSSA, CATA} }

// Fig5Policies are the configurations of Figure 5 (FIFO is run implicitly
// as the normalization baseline).
func Fig5Policies() []Policy { return []Policy{CATA, CATARSU, TURBO} }

// AllPolicies returns every paper-evaluated policy once (the extensions
// are opt-in; see ExtensionPolicies).
func AllPolicies() []Policy { return policiesWhere(false) }

// ExtensionPolicies returns the beyond-the-paper configurations,
// including registered extensions like AMTHA.
func ExtensionPolicies() []Policy { return policiesWhere(true) }

func policiesWhere(extension bool) []Policy {
	var ps []Policy
	for _, d := range PolicyDocs() {
		if d.Extension == extension {
			ps = append(ps, d.Policy)
		}
	}
	return ps
}

// String implements fmt.Stringer: the canonical spec (for the built-in
// configurations, the paper's label).
func (p Policy) String() string {
	if p == "" {
		return string(FIFO)
	}
	return string(p)
}

// MarshalJSON encodes the policy as its canonical spec string, keeping
// cache keys and persisted sweep results readable and stable. The zero
// value encodes as FIFO, its meaning everywhere else.
func (p Policy) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON decodes and validates a policy spec.
func (p *Policy) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// ParsePolicy resolves a policy spec string (`name` or
// `name:key=val,...`, name matched case-insensitively) against the
// registry, validating parameter keys, types and bounds, and returns the
// canonical Policy. The error is a *spec.Error naming the
// offending parameter when one is at fault.
func ParsePolicy(s string) (Policy, error) {
	canon, err := policies.Canonicalize(s)
	if err != nil {
		return "", err
	}
	return Policy(canon), nil
}

// rig is one fully wired system, ready to run.
type rig struct {
	eng     *sim.Engine
	mach    *machine.Machine
	runtime *rts.Runtime

	// Non-nil depending on policy, for statistics harvesting.
	rsmMod  *rsm.RSM
	rsuUnit *rsu.RSU
	turboC  *turbo.Controller
	fw      *cpufreq.Framework

	// probe is the flight recorder, non-nil only when the spec requested
	// a trace; fast snapshots the core classes at time zero.
	probe *probe.Buffer
	fast  []bool
}

// buildRig assembles the policy's full stack for one run: it resolves
// the policy spec against the registry, applies the entry's machine
// hook (if any) before the machine is constructed, and hands the entry's
// Build hook the wiring environment.
func buildRig(spec RunSpec, prog programHolder) (*rig, error) {
	if err := CheckCores(spec.Cores, spec.FastCores); err != nil {
		return nil, fmt.Errorf("%v: %w", spec, err)
	}
	entry, params, err := policies.Resolve(string(spec.Policy))
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	mcfg := machine.TableIConfig()
	mcfg.Cores = spec.Cores
	if spec.TransitionLatency > 0 {
		mcfg.TransitionLatency = spec.TransitionLatency
	}
	if entry.Machine != nil {
		if err := entry.Machine(params, &mcfg); err != nil {
			return nil, err
		}
	}
	mach, err := machine.New(eng, mcfg)
	if err != nil {
		return nil, err
	}

	opts := rts.DefaultOptions()
	opts.MaxSimTime = spec.MaxSimTime
	if opts.MaxSimTime > 0 {
		// Open-system runs push the abort horizon past the last arrival;
		// zero for closed runs, whose MaxSimTime is unchanged.
		opts.MaxSimTime += prog.extraSimTime
	}
	opts.RetainTasks = spec.Trace != nil || spec.Timeline != nil
	cfg := rts.Config{
		Machine:   mach,
		Program:   prog.prog,
		Estimator: sched.StaticAnnotations{},
		Options:   opts,
		Open:      prog.open,
	}
	r := &rig{eng: eng, mach: mach}
	if spec.Trace != nil {
		// Attach the flight recorder before the policy is built so the
		// static class assignment (SetHeterogeneous) is captured as the
		// frequency counters' seed transitions.
		r.probe = probe.NewBuffer()
		mach.SetRecorder(r.probe)
		cfg.Recorder = r.probe
	}

	env := &policies.Env{
		Eng:       eng,
		Mach:      mach,
		Cfg:       &cfg,
		FastCores: spec.FastCores,
		Seed:      spec.Seed,
	}
	if err := entry.Build(params, env); err != nil {
		return nil, err
	}
	r.fw = env.FW
	r.rsmMod = env.RSM
	r.rsuUnit = env.RSU
	r.turboC = env.Turbo

	if r.probe != nil {
		if r.fw != nil {
			r.fw.SetRecorder(r.probe)
		}
		if r.rsmMod != nil {
			r.rsmMod.SetRecorder(r.probe)
		}
		if r.rsuUnit != nil {
			r.rsuUnit.SetRecorder(r.probe)
		}
		r.fast = make([]bool, mach.Cores())
		for i := range r.fast {
			r.fast[i] = mach.IsFastCore(i)
		}
	}

	r.runtime, err = rts.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	return r, nil
}
