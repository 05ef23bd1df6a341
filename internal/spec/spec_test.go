package spec

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parseCases is the grammar table shared by TestParse and the fuzz seed
// corpus. canon is the expected canonical form, "" when Parse must fail;
// key is the expected Error.Key of a failure.
var parseCases = []struct {
	in, canon, key string
}{
	// Bare names.
	{"dedup", "dedup", ""},
	{"FIFO", "FIFO", ""},
	{"  dedup  ", "dedup", ""},
	// Parameters sort by key; keys and values are trimmed.
	{"layered:width=16,depth=32,seed=7", "layered:depth=32,seed=7,width=16", ""},
	{"layered: depth=32, width=16", "layered:depth=32,width=16", ""},
	{"X: b=2 , a=1", "X:a=1,b=2", ""},
	{"AMTHA:tiebreak=spread", "AMTHA:tiebreak=spread", ""},
	{"poisson:jobs=4, lambda=2000", "poisson:jobs=4,lambda=2000", ""},
	// Values may be empty or contain '=' and ':'; Check judges them.
	{"trace:file=", "trace:file=", ""},
	{"trace:file=a=b:c", "trace:file=a=b:c", ""},
	// Syntax errors: the whole spec is at fault.
	{"", "", ""},
	{"   ", "", ""},
	{":width=1", "", ""},
	{":a=1", "", ""},
	{"layered:", "", ""},
	{"FIFO: ", "", ""},
	{"layered:width", "", ""},
	{"FIFO:novalue", "", ""},
	{"layered:=16", "", ""},
	{"FIFO:=1", "", ""},
	{"FIFO: =1", "", ""},
	{"layered:width=1,", "", ""},
	// Duplicate keys name the key.
	{"layered:width=1,width=2", "", "width"},
	{"X:a=1,a=2", "", "a"},
	{"X:a=1, a =2", "", "a"},
}

func TestParse(t *testing.T) {
	for _, tc := range parseCases {
		sp, err := Parse(tc.in)
		if tc.canon == "" {
			var se *Error
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) = %+v, %v; want a *Error", tc.in, sp, err)
				continue
			}
			if se.Key != tc.key {
				t.Errorf("Parse(%q): Key = %q, want %q (%v)", tc.in, se.Key, tc.key, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := sp.Canonical(); got != tc.canon {
			t.Errorf("Parse(%q).Canonical() = %q, want %q", tc.in, got, tc.canon)
		}
		if name, _, _ := strings.Cut(tc.canon, ":"); sp.Name != name {
			t.Errorf("Parse(%q).Name = %q, want %q", tc.in, sp.Name, name)
		}
	}

	sp, err := Parse("layered:width=16,depth=32")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sp.Params.Lookup("width"); !ok || v != "16" {
		t.Fatalf("width = %q, %v", v, ok)
	}
	if _, ok := sp.Params.Lookup("seed"); ok {
		t.Fatal("absent key found")
	}
}

func TestParamsAccessors(t *testing.T) {
	sp, err := Parse("x:i=-3,u=18446744073709551615,f=0.25,d=5ms,s=text")
	if err != nil {
		t.Fatal(err)
	}
	p := sp.Params
	if got := p.Int("i", 0); got != -3 {
		t.Errorf("Int = %d", got)
	}
	if got := p.Uint64("u", 0); got != 1<<64-1 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := p.Float("f", 0); got != 0.25 {
		t.Errorf("Float = %g", got)
	}
	if got := p.Duration("d", 0); got != 5*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := p.Str("s", ""); got != "text" {
		t.Errorf("Str = %q", got)
	}
	// Absent keys fall back to the default.
	if p.Int("absent", 7) != 7 || p.Uint64("absent", 8) != 8 || p.Float("absent", 2.5) != 2.5 ||
		p.Duration("absent", time.Second) != time.Second || p.Str("absent", "def") != "def" {
		t.Error("absent key did not return its default")
	}
}

func TestCheck(t *testing.T) {
	docs := []ParamDoc{
		{Key: "n", Kind: Int, Min: 1},
		{Key: "side", Kind: Int},
		{Key: "seed", Kind: Uint},
		{Key: "theta", Kind: Float, Max: 1, MinExclusive: true},
		{Key: "mode", Kind: Enum, Choices: []string{"a", "b"}},
		{Key: "gap", Kind: Duration, Max: 10, MinExclusive: true},
		{Key: "file", Kind: String},
	}
	for _, tc := range []struct {
		in  string
		key string // "" when the spec passes
	}{
		{"x", ""},
		{"x:n=1,side=0,seed=0,theta=1,mode=b,gap=1ms,file=", ""},
		{"x:n=1000000,theta=1e-9,gap=10s,file=any thing", ""},
		{"x:bogus=1", "bogus"},
		{"x:n=0", "n"},
		{"x:n=1e3", "n"},
		{"x:n=3.5", "n"},
		{"x:n=", "n"},
		{"x:side=-1", "side"},
		{"x:seed=-1", "seed"},
		{"x:seed=18446744073709551616", "seed"},
		{"x:theta=0", "theta"},
		{"x:theta=1.5", "theta"},
		{"x:theta=fast", "theta"},
		{"x:theta=NaN", "theta"},
		{"x:theta=2000abc", "theta"},
		{"x:mode=c", "mode"},
		{"x:mode=A", "mode"},
		{"x:gap=0s", "gap"},
		{"x:gap=-1ms", "gap"},
		{"x:gap=11s", "gap"},
		{"x:gap=5", "gap"},
	} {
		sp, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		err = Check(docs, sp)
		if tc.key == "" {
			if err != nil {
				t.Errorf("Check(%q): %v", tc.in, err)
			}
			continue
		}
		var se *Error
		if !errors.As(err, &se) || se.Key != tc.key || se.Name != "x" {
			t.Errorf("Check(%q) = %v, want a *Error for key %q", tc.in, err, tc.key)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry[int]("widget")
	r.Register("Gear", []ParamDoc{{Key: "teeth", Kind: Int, Min: 3}}, 1)
	r.Register("cog", nil, 2)

	for _, in := range []string{"gear:teeth=12", "GEAR: teeth=12", "Gear:teeth=12"} {
		e, sp, err := r.Resolve(in)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", in, err)
		}
		if e != 1 || sp.Canonical() != "Gear:teeth=12" {
			t.Errorf("Resolve(%q) = %d, %q", in, e, sp.Canonical())
		}
	}
	if got := r.Entries(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Entries = %v, want name order [1 2]", got)
	}

	// Every failure is a *Error stamped with the registry's kind and the
	// spec as written.
	for _, tc := range []struct{ in, name, key string }{
		{"wheel", "wheel", ""},
		{"gear:teeth=2", "Gear", "teeth"},
		{"cog:teeth=5", "cog", "teeth"},
		{"gear:", "gear", ""},
		{"", "", ""},
	} {
		_, _, err := r.Resolve(tc.in)
		var se *Error
		if !errors.As(err, &se) || se.Kind != "widget" || se.Spec != tc.in || se.Name != tc.name || se.Key != tc.key {
			t.Errorf("Resolve(%q) = %#v, want kind widget, name %q, key %q", tc.in, err, tc.name, tc.key)
		}
	}
	if _, err := r.Lookup("wheel"); err == nil || !strings.Contains(err.Error(), "unknown widget (have Gear, cog)") {
		t.Errorf("unknown-name error %v does not list the registry", err)
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	r := NewRegistry[int]("widget")
	r.Register("Gear", nil, 1)
	for name, reg := range map[string]func(){
		"empty name":      func() { r.Register("", nil, 0) },
		"duplicate":       func() { r.Register("gear", nil, 0) },
		"empty key":       func() { r.Register("a", []ParamDoc{{}}, 0) },
		"duplicate key":   func() { r.Register("b", []ParamDoc{{Key: "k"}, {Key: "k"}}, 0) },
		"enum no choices": func() { r.Register("c", []ParamDoc{{Key: "k", Kind: Enum}}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			reg()
		}()
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		String: "string", Int: "int", Uint: "uint", Float: "float", Enum: "enum", Duration: "duration",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// FuzzParse: Parse never panics, and the canonical form of any accepted
// spec parses back to the same spec — Parse∘Canonical is a fixed point.
func FuzzParse(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return
		}
		canon := sp.Canonical()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok but its canonical form %q fails: %v", s, canon, err)
		}
		if !reflect.DeepEqual(back, sp) || back.Canonical() != canon {
			t.Fatalf("Parse(Canonical(Parse(%q))) = %+v, want %+v", s, back, sp)
		}
	})
}
