package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Registry maps spec names to entries of one kind — workloads, policies
// or arrival processes. Names match case-insensitively and resolve to
// the registered spelling, and every resolved spec has passed Check
// against its entry's ParamDocs.
type Registry[E any] struct {
	kind    string
	entries map[string]registered[E] // keyed by the lowercased name
}

type registered[E any] struct {
	name  string
	docs  []ParamDoc
	entry E
}

// NewRegistry returns an empty registry whose errors carry kind
// ("workload", "policy" or "arrivals").
func NewRegistry[E any](kind string) *Registry[E] {
	return &Registry[E]{kind: kind, entries: map[string]registered[E]{}}
}

// Register adds entry under name with the parameters docs. It panics on
// an empty or duplicate (case-folded) name and on malformed docs — empty
// or duplicate keys, enums without choices — which are programmer errors
// in an init-time, static call graph.
func (r *Registry[E]) Register(name string, docs []ParamDoc, entry E) {
	if name == "" {
		panic(fmt.Sprintf("spec: %s registered with an empty name", r.kind))
	}
	key := strings.ToLower(name)
	if _, dup := r.entries[key]; dup {
		panic(fmt.Sprintf("spec: duplicate registration of %s %q", r.kind, name))
	}
	for i, d := range docs {
		if d.Key == "" {
			panic(fmt.Sprintf("spec: %s %s declares an empty parameter key", r.kind, name))
		}
		if _, dup := findDoc(docs[:i], d.Key); dup {
			panic(fmt.Sprintf("spec: %s %s declares parameter %s twice", r.kind, name, d.Key))
		}
		if d.Kind == Enum && len(d.Choices) == 0 {
			panic(fmt.Sprintf("spec: %s %s parameter %s is an enum with no choices", r.kind, name, d.Key))
		}
	}
	r.entries[key] = registered[E]{name: name, docs: docs, entry: entry}
}

// Lookup returns the entry registered under name, matched
// case-insensitively.
func (r *Registry[E]) Lookup(name string) (E, error) {
	e, err := r.lookup(name)
	return e.entry, err
}

func (r *Registry[E]) lookup(name string) (registered[E], error) {
	e, ok := r.entries[strings.ToLower(name)]
	if !ok {
		names := make([]string, 0, len(r.entries))
		for _, e := range r.entries {
			names = append(names, e.name)
		}
		sort.Strings(names)
		return e, &Error{Kind: r.kind, Spec: name, Name: name,
			Reason: fmt.Sprintf("unknown %s (have %s)", r.kind, strings.Join(names, ", "))}
	}
	return e, nil
}

// Resolve parses s, looks its name up and checks its parameters. The
// returned Spec carries the registered spelling of the name, so its
// Canonical form is the configuration's one canonical string. Every
// error is a *Error carrying the registry's kind and s as written.
func (r *Registry[E]) Resolve(s string) (E, Spec, error) {
	sp, err := Parse(s)
	if err == nil {
		var e registered[E]
		if e, err = r.lookup(sp.Name); err == nil {
			sp.Name = e.name
			if err = Check(e.docs, sp); err == nil {
				return e.entry, sp, nil
			}
		}
	}
	se := err.(*Error)
	se.Kind, se.Spec = r.kind, s
	var zero E
	return zero, Spec{}, se
}

// Canonicalize resolves s and returns its canonical form: the
// registered name, then the parameters as written in sorted key order.
func (r *Registry[E]) Canonicalize(s string) (string, error) {
	_, sp, err := r.Resolve(s)
	if err != nil {
		return "", err
	}
	return sp.Canonical(), nil
}

// Entries returns every registered entry, ordered by name.
func (r *Registry[E]) Entries() []E {
	rs := make([]registered[E], 0, len(r.entries))
	for _, e := range r.entries {
		rs = append(rs, e)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].name < rs[j].name })
	es := make([]E, len(rs))
	for i, e := range rs {
		es[i] = e.entry
	}
	return es
}
