// Package spec is the one grammar behind every configuration string the
// simulator accepts — workload specs (internal/workloads), policy specs
// (internal/policies) and arrival-process specs (internal/opensys):
//
//	name
//	name:key=val,key=val,...
//
// Parse splits a string into a name and its parameters (keys sorted,
// keys and values trimmed). Each registry declares its parameters as
// typed ParamDocs, and Check validates a spec against them — kind,
// bounds, choices — before anything is built, so a bad value is
// rejected at parse (or catad admission) time with the offending key
// named in a *Error. Registry gives all three the same name rule:
// names match case-insensitively and canonicalize to the registered
// spelling. Canonical renders the name and the parameters as written in
// sorted key order, so two spellings of one configuration share a batch
// cache key.
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind is the declared type of a spec parameter.
type Kind int

const (
	// String accepts any value.
	String Kind = iota
	// Int accepts decimal integers, bounded by ParamDoc.Min/Max.
	Int
	// Uint accepts decimal unsigned 64-bit integers.
	Uint
	// Float accepts finite numbers, bounded by ParamDoc.Min/Max.
	Float
	// Enum accepts exactly the values in ParamDoc.Choices.
	Enum
	// Duration accepts Go duration syntax ("500us", "5ms"), bounded by
	// ParamDoc.Min/Max in seconds.
	Duration
)

// String names the kind for listings and error messages.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Uint:
		return "uint"
	case Float:
		return "float"
	case Enum:
		return "enum"
	case Duration:
		return "duration"
	default:
		return "string"
	}
}

// ParamDoc documents and types one spec parameter. A spec may only set
// keys its entry documents, and each value must satisfy the key's kind
// and bounds.
type ParamDoc struct {
	// Key is the parameter name as written in a spec.
	Key string
	// Kind is the declared value type.
	Kind Kind
	// Default describes the value used when the key is absent.
	Default string
	// Help is a one-line description.
	Help string
	// Min and Max bound Int, Uint, Float and Duration values (inclusive,
	// unless MinExclusive). Min always applies; Max applies only when it
	// is above Min.
	Min, Max float64
	// MinExclusive makes the lower bound strict (e.g. theta in (0,1]).
	MinExclusive bool
	// Choices lists the accepted values of an Enum parameter.
	Choices []string
}

// Error reports a spec that was rejected. Key is the offending parameter,
// or "" when the name or the syntax is at fault, so callers (catad's
// admission check) can name the exact field in a structured response.
type Error struct {
	// Kind is the registry that rejected the spec: "workload", "policy"
	// or "arrivals".
	Kind string
	// Spec is the rejected spec: as written when a Registry rejects it,
	// canonical when Check is called directly.
	Spec string
	// Name is the spec's name (the registered spelling when known).
	Name string
	// Key is the offending parameter key; "" for name and syntax errors.
	Key string
	// Reason says what was wrong.
	Reason string
}

// Error implements error.
func (e *Error) Error() string {
	kind := e.Kind
	if kind == "" {
		kind = "spec"
	}
	switch {
	case e.Key != "":
		return fmt.Sprintf("%s %s: parameter %s: %s", kind, e.Name, e.Key, e.Reason)
	case e.Name != "":
		return fmt.Sprintf("%s %s: %s", kind, e.Name, e.Reason)
	default:
		return fmt.Sprintf("%s %q: %s", kind, e.Spec, e.Reason)
	}
}

// Spec is a parsed spec string.
type Spec struct {
	// Name selects a registry entry.
	Name string
	// Params are the provided parameters.
	Params Params
}

// Params is a spec's parameter list, sorted by key. Its accessors return
// the default when a key is absent; values are validated by Check before
// any accessor runs, so they do not report errors.
type Params struct {
	kvs []kv
}

type kv struct{ key, val string }

// Parse splits s into its name and parameters. It checks syntax only —
// a non-empty name, key=val pairs, no empty or duplicate keys; Check and
// Registry validate against the declared parameters.
func Parse(s string) (Spec, error) {
	name, rest, hasParams := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Spec{}, &Error{Spec: s, Reason: "empty name"}
	}
	sp := Spec{Name: name}
	if !hasParams {
		return sp, nil
	}
	if strings.TrimSpace(rest) == "" {
		return Spec{}, &Error{Spec: s, Name: name, Reason: "spec has a ':' but no parameters"}
	}
	for _, pair := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(pair, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return Spec{}, &Error{Spec: s, Name: name, Reason: "bad parameter " + strconv.Quote(pair) + " (want key=val)"}
		}
		sp.Params.kvs = append(sp.Params.kvs, kv{key, strings.TrimSpace(val)})
	}
	kvs := sp.Params.kvs
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].key < kvs[j].key })
	for i := 1; i < len(kvs); i++ {
		if kvs[i].key == kvs[i-1].key {
			return Spec{}, &Error{Spec: s, Name: name, Key: kvs[i].key, Reason: "duplicate parameter"}
		}
	}
	return sp, nil
}

// Canonical renders the spec as the name followed by the parameters as
// written, in sorted key order. Two strings that differ only in
// parameter order or whitespace canonicalize identically.
func (s Spec) Canonical() string {
	if len(s.Params.kvs) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	for i, p := range s.Params.kvs {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(p.key)
		b.WriteByte('=')
		b.WriteString(p.val)
	}
	return b.String()
}

// Lookup returns the raw value of a provided parameter.
func (p Params) Lookup(key string) (string, bool) {
	for _, e := range p.kvs {
		if e.key == key {
			return e.val, true
		}
	}
	return "", false
}

// Str returns the parameter key, or def when absent.
func (p Params) Str(key, def string) string {
	if v, ok := p.Lookup(key); ok {
		return v
	}
	return def
}

// Int returns the integer parameter key, or def when absent.
func (p Params) Int(key string, def int) int {
	if v, ok := p.Lookup(key); ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// Uint64 returns the unsigned parameter key, or def when absent.
func (p Params) Uint64(key string, def uint64) uint64 {
	if v, ok := p.Lookup(key); ok {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// Float returns the float parameter key, or def when absent.
func (p Params) Float(key string, def float64) float64 {
	if v, ok := p.Lookup(key); ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

// Duration returns the duration parameter key, or def when absent.
func (p Params) Duration(key string, def time.Duration) time.Duration {
	if v, ok := p.Lookup(key); ok {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return def
}

// Check validates every provided parameter of s against docs: the key
// must be documented and the value must satisfy its kind, bounds and
// choices. It builds nothing, so it is safe at admission time.
func Check(docs []ParamDoc, s Spec) error {
	for _, p := range s.Params.kvs {
		d, ok := findDoc(docs, p.key)
		if !ok {
			return &Error{Spec: s.Canonical(), Name: s.Name, Key: p.key,
				Reason: "unknown parameter (have " + keyList(docs) + ")"}
		}
		if reason := checkValue(d, p.val); reason != "" {
			return &Error{Spec: s.Canonical(), Name: s.Name, Key: p.key, Reason: reason}
		}
	}
	return nil
}

func findDoc(docs []ParamDoc, key string) (ParamDoc, bool) {
	for _, d := range docs {
		if d.Key == key {
			return d, true
		}
	}
	return ParamDoc{}, false
}

func keyList(docs []ParamDoc) string {
	if len(docs) == 0 {
		return "none"
	}
	keys := make([]string, len(docs))
	for i, d := range docs {
		keys[i] = d.Key
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// checkValue returns why val fails d, or "" when it passes.
func checkValue(d ParamDoc, val string) string {
	var v float64
	switch d.Kind {
	case Int:
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Sprintf("value %q is not an integer", val)
		}
		v = float64(n)
	case Uint:
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Sprintf("value %q is not an unsigned integer", val)
		}
		v = float64(n)
	case Float:
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprintf("value %q is not a finite number", val)
		}
		v = f
	case Duration:
		t, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Sprintf("value %q is not a duration", val)
		}
		v = t.Seconds()
	case Enum:
		for _, c := range d.Choices {
			if val == c {
				return ""
			}
		}
		return fmt.Sprintf("value %q is not one of %s", val, strings.Join(d.Choices, ", "))
	default:
		return ""
	}
	if v < d.Min || (d.MinExclusive && v == d.Min) {
		cmp := ">="
		if d.MinExclusive {
			cmp = ">"
		}
		return fmt.Sprintf("value %s must be %s %g", val, cmp, d.Min)
	}
	if d.Max > d.Min && v > d.Max {
		return fmt.Sprintf("value %s must be <= %g", val, d.Max)
	}
	return ""
}
