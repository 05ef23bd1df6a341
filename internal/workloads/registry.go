package workloads

import (
	"fmt"
	"sort"

	"cata/internal/program"
	"cata/internal/spec"
)

// Entry is one registered workload: a named constructor with typed,
// documented parameters. The registry replaces the hard-coded workload
// lists that used to live in each CLI: anything registered here is
// runnable from both CLIs, the public API, and the evaluation matrix.
type Entry struct {
	// Name is the spec name, lowercase (e.g. "dedup", "layered").
	Name string
	// Description summarizes the workload's structure in one line.
	Description string
	// Params documents and types the accepted parameters, bounds
	// included. Specs naming any other key (except the reserved
	// seed/scale) or violating a bound are rejected before Build runs.
	Params []spec.ParamDoc
	// Build constructs the program. seed and scale arrive with the
	// reserved spec parameters already applied.
	Build func(p spec.Params, seed uint64, scale float64) (*program.Program, error)
	// FileBacked marks workloads whose program is loaded from an
	// external file: they cannot be built without parameters, and their
	// cache identity must include the file's content (see CacheToken).
	FileBacked bool
	// CacheToken, when non-nil, returns extra material mixed into the
	// batch cache key beyond the canonical spec string — file-backed
	// entries return a content hash so a changed file never reuses a
	// stale cached result. A nil CacheToken means the canonical spec
	// fully identifies the generated program.
	CacheToken func(p spec.Params) (string, error)
}

// reservedParams apply to every workload and are handled by Build before
// an entry's constructor runs.
var reservedParams = []spec.ParamDoc{
	{Key: "seed", Kind: spec.Uint, Default: "run seed", Help: "override the run's workload seed"},
	{Key: "scale", Kind: spec.Float, Default: "run scale", Help: "override the run's scale in (0,1]",
		Min: 0, Max: 1, MinExclusive: true},
}

var registry = spec.NewRegistry[Entry]("workload")

// Register adds an entry to the workload registry. It panics on duplicate
// or empty names, malformed parameter docs, and file-backed entries
// without a CacheToken — programmer errors in an init-time, static call
// graph.
func Register(e Entry) {
	if e.Build == nil {
		panic(fmt.Sprintf("workloads: %q registered with a nil Build", e.Name))
	}
	if e.FileBacked && e.CacheToken == nil {
		panic(fmt.Sprintf("workloads: file-backed workload %q must provide a CacheToken", e.Name))
	}
	docs := append(append([]spec.ParamDoc(nil), e.Params...), reservedParams...)
	registry.Register(e.Name, docs, e)
}

// List returns every registered entry: the six paper benchmarks first (in
// the paper's presentation order), then everything else alphabetically.
func List() []Entry {
	paper := make(map[string]int, 6)
	for i, w := range All() {
		paper[w.Name()] = i
	}
	es := registry.Entries()
	sort.SliceStable(es, func(i, j int) bool {
		pi, iPaper := paper[es[i].Name]
		pj, jPaper := paper[es[j].Name]
		return iPaper && (!jPaper || pi < pj)
	})
	return es
}

// Build resolves a workload spec string against the registry and
// generates its program: `dedup`, `layered:seed=7,width=16,depth=32`,
// `trace:file=capture.json`, ... The seed and scale arguments are the
// run's values; the reserved spec parameters override them. The returned
// program is validated.
func Build(s string, seed uint64, scale float64) (*program.Program, error) {
	e, sp, err := registry.Resolve(s)
	if err != nil {
		return nil, err
	}
	prog, err := e.build(sp.Params, seed, scale)
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", e.Name, err)
	}
	return prog, nil
}

// Builder resolves a workload spec once and returns a function that
// generates its program for a run's seed and scale as Build does.
// Callers that build many programs from one spec — an open-system run
// builds one per job — pay for the spec's parsing once. The programs
// are not validated: they are meant to be compiled, and compiling
// validates.
func Builder(s string) (func(seed uint64, scale float64) (*program.Program, error), error) {
	e, sp, err := registry.Resolve(s)
	if err != nil {
		return nil, err
	}
	return func(seed uint64, scale float64) (*program.Program, error) {
		return e.build(sp.Params, seed, scale)
	}, nil
}

// build runs the entry's constructor for a run's seed and scale, with
// the reserved spec parameters applied over them.
func (e Entry) build(p spec.Params, seed uint64, scale float64) (*program.Program, error) {
	return e.Build(p, p.Uint64("seed", seed), p.Float("scale", scale))
}

// Canonicalize resolves a workload spec against the registry — name,
// parameter keys, kinds and bounds — without building anything or
// reading files, and returns its canonical form.
func Canonicalize(s string) (string, error) { return registry.Canonicalize(s) }

// CacheToken returns the content-addressed identity of a workload spec
// for batch cache keys: the canonical spec string, extended with the
// entry's extra token (e.g. a file content hash) when it has one. It
// fails for specs the registry rejects and for unreadable files, in
// which case the run is not cacheable (and will fail anyway).
func CacheToken(s string) (string, error) {
	e, sp, err := registry.Resolve(s)
	if err != nil {
		return "", err
	}
	tok := sp.Canonical()
	if e.CacheToken != nil {
		extra, err := e.CacheToken(sp.Params)
		if err != nil {
			return "", err
		}
		tok += "#" + extra
	}
	return tok, nil
}

// init registers the six paper benchmarks. The synthetic shapes and the
// trace importers register themselves in their own files.
func init() {
	for _, w := range All() {
		w := w
		Register(Entry{
			Name:        w.Name(),
			Description: w.Description(),
			Build: func(_ spec.Params, seed uint64, scale float64) (*program.Program, error) {
				return w.Build(seed, scale), nil
			},
		})
	}
}
