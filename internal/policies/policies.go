// Package policies is the open policy registry: every scheduling /
// acceleration configuration the simulator can run is a named Entry
// registered here, resolvable from a spec string of the form
//
//	name
//	name:key=val,key=val,...
//
// in the grammar every registry shares (internal/spec). The name is
// matched case-insensitively; parameters are typed and validated against
// the entry's spec.ParamDoc list before anything is built, so a bad spec
// is rejected at parse (or catad admission) time with the offending key
// named. Canonicalize folds case and parameter order into one canonical
// string, which is what internal/exp stores in RunSpec.Policy and hashes
// into the batch cache key — two spellings of the same configuration
// never fork the cache.
//
// The eight built-in configurations (builtin.go) and AMTHA (amtha.go)
// register themselves at init; anything else can join them by calling
// Register from its own init. See ARCHITECTURE.md "Writing a policy".
package policies

import (
	"fmt"
	"sort"

	"cata/internal/cpufreq"
	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/rsu"
	"cata/internal/rts"
	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/turbo"
)

// Env is the per-run wiring surface handed to a policy's Build hook: the
// engine and machine already exist, and Cfg is the runtime configuration
// whose scheduler / estimator / reconfiguration slots the policy fills
// in. Cfg.Program is the closed-system compiled program (nil for open-system
// runs), available to policies that precompute from the task graph.
//
// A policy that instantiates one of the optional modules stores it in
// the matching harvest slot so the experiment harness can collect its
// statistics after the run.
type Env struct {
	// Eng is the simulation engine.
	Eng *sim.Engine
	// Mach is the machine under the configured core count.
	Mach *machine.Machine
	// Cfg is the runtime configuration to complete.
	Cfg *rts.Config
	// FastCores is the run's fast-core budget.
	FastCores int
	// Seed is the run's seed, for policies that need randomness.
	Seed uint64

	// RSM, RSU, Turbo and FW are the harvest slots.
	RSM   *rsm.RSM
	RSU   *rsu.RSU
	Turbo *turbo.Controller
	FW    *cpufreq.Framework
}

// Entry is one registered policy: a named configuration with typed,
// documented parameters. The registry replaces the closed policy enum
// that used to live in internal/exp: anything registered here is
// parseable, sweepable, cacheable and servable through catad by its
// spec string alone.
type Entry struct {
	// Name is the canonical spec name (the paper's label for the
	// built-ins, e.g. "CATA+RSU"). Lookup is case-insensitive.
	Name string
	// Extension marks beyond-the-paper configurations.
	Extension bool
	// Summary is a one-line description.
	Summary string
	// Params documents and types the accepted parameters. Specs naming
	// any other key or violating a bound are rejected before Build runs.
	Params []spec.ParamDoc
	// Machine, when non-nil, adjusts the machine configuration before
	// the machine is constructed (e.g. a different power model).
	Machine func(p spec.Params, cfg *machine.Config) error
	// Build completes the runtime configuration in env.
	Build func(p spec.Params, env *Env) error
}

var registry = spec.NewRegistry[Entry]("policy")

// builtinOrder pins the listing order of the paper's configurations;
// everything else lists after them alphabetically.
var builtinOrder = map[string]int{}

// Register adds an entry to the policy registry. It panics on duplicate
// (case-folded) or empty names, nil Build hooks, and malformed parameter
// docs — programmer errors in an init-time, static call graph.
func Register(e Entry) {
	if e.Build == nil {
		panic(fmt.Sprintf("policies: %q registered with a nil Build", e.Name))
	}
	registry.Register(e.Name, e.Params, e)
}

// List returns every registered entry: the eight built-in
// configurations first (paper order, then the built-in extensions),
// then everything else alphabetically by name.
func List() []Entry {
	es := registry.Entries()
	sort.SliceStable(es, func(i, j int) bool {
		oi, iBuiltin := builtinOrder[es[i].Name]
		oj, jBuiltin := builtinOrder[es[j].Name]
		return iBuiltin && (!jBuiltin || oi < oj)
	})
	return es
}

// Lookup returns the registry entry for a policy name, matched
// case-insensitively.
func Lookup(name string) (Entry, error) { return registry.Lookup(name) }

// Canonicalize resolves a spec string against the registry and returns
// its canonical form: the entry's canonical name followed by the
// validated parameters in sorted key order. This is the string RunSpec
// carries and the batch cache key hashes — "cata+rsu" and "CATA+RSU"
// canonicalize identically, as do two orderings of the same parameters.
func Canonicalize(s string) (string, error) { return registry.Canonicalize(s) }

// Resolve parses and validates a spec string and returns its entry plus
// the typed parameters its hooks consume.
func Resolve(s string) (Entry, spec.Params, error) {
	e, sp, err := registry.Resolve(s)
	return e, sp.Params, err
}
