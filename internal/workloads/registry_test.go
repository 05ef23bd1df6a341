package workloads

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cata/internal/spec"
)

// TestParseSpec: workload specs parse into the registered entry plus its
// parameters, and the canonical form sorts keys; a bare name is its own
// canonical form.
func TestParseSpec(t *testing.T) {
	_, sp, err := registry.Resolve("layered:width=16,depth=32,fanin=3")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "layered" {
		t.Fatalf("name = %q", sp.Name)
	}
	if v, ok := sp.Params.Lookup("width"); !ok || v != "16" {
		t.Fatalf("width = %q, %v", v, ok)
	}
	if got, want := sp.Canonical(), "layered:depth=32,fanin=3,width=16"; got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}

	bare, err := Canonicalize("dedup")
	if err != nil || bare != "dedup" {
		t.Fatalf("bare spec: %q, %v", bare, err)
	}
}

func TestParseSpecCanonicalOrderInsensitive(t *testing.T) {
	a, err := Canonicalize("layered:width=16,depth=32")
	if err != nil {
		t.Fatal(err)
	}
	// Names match case-insensitively and canonicalize to the registered
	// spelling; parameter order and whitespace fold away.
	b, err := Canonicalize("LAYERED: depth=32, width=16")
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != "layered:depth=32,width=16" {
		t.Fatalf("canonical forms differ: %q vs %q", a, b)
	}
}

// TestParseSpecErrors: grammar errors (covered in internal/spec) surface
// from every workload entry point as a *spec.Error of kind "workload".
func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{"", ":width=1", "layered:", "layered:width", "layered:width=1,width=2"} {
		for name, err := range map[string]error{
			"Build":        buildErr(s),
			"Canonicalize": canonErr(s),
			"CacheToken":   tokenErr(s),
		} {
			var se *spec.Error
			if !errors.As(err, &se) || se.Kind != "workload" {
				t.Errorf("%s(%q) = %v, want a workload *spec.Error", name, s, err)
			}
		}
	}
}

func buildErr(s string) error { _, err := Build(s, 42, 1.0); return err }
func canonErr(s string) error { _, err := Canonicalize(s); return err }
func tokenErr(s string) error { _, err := CacheToken(s); return err }

func TestBuildRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, key string }{
		{"nope", ""},                    // unknown workload
		{"layered:bogus=1", "bogus"},    // undocumented parameter
		{"layered:width=zero", "width"}, // non-integer value
		{"layered:width=0", "width"},    // below minimum
		{"layered:width=-5", "width"},
		{"layered:memfrac=1.5", "memfrac"}, // out of range
		{"layered:dur=NaN", "dur"},
		{"dedup:width=4", "width"}, // paper benchmark has no width
		{"chain:scale=2", "scale"}, // reserved scale out of range
		{"chain:scale=0", "scale"}, // zero scale would silently mean full scale
		{"chain:seed=-1", "seed"},
		{"chain:sidedur=0", "sidedur"},
		{"pipeline:stages=1", "stages"},
	} {
		// Build and the admission-time Canonicalize reject the same specs
		// with the same key, before anything is constructed.
		for name, err := range map[string]error{"Build": buildErr(tc.spec), "Canonicalize": canonErr(tc.spec)} {
			var se *spec.Error
			if !errors.As(err, &se) || se.Kind != "workload" || se.Key != tc.key {
				t.Errorf("%s(%q) = %v, want a workload *spec.Error for key %q", name, tc.spec, err, tc.key)
			}
		}
	}
	// A file-backed workload without its file fails at build time.
	if _, err := Build("trace", 42, 1.0); err == nil {
		t.Error("Build(trace) accepted")
	}
}

func TestBuildSeedParamOverridesRunSeed(t *testing.T) {
	base := mustBuild(t, "chain:length=5,side=1", 42, 1.0)
	pinned := mustBuild(t, "chain:length=5,side=1,seed=42", 7, 1.0)
	if !sameProgram(base, pinned) {
		t.Fatal("seed=42 param did not override the run seed")
	}
	other := mustBuild(t, "chain:length=5,side=1", 7, 1.0)
	if sameProgram(base, other) {
		t.Fatal("different run seeds produced identical programs")
	}
}

func TestBuildPaperBenchmarksMatchLegacyPath(t *testing.T) {
	for _, w := range All() {
		legacy := w.Build(1337, 0.2)
		viaRegistry := mustBuild(t, w.Name(), 1337, 0.2)
		if !sameProgram(legacy, viaRegistry) {
			t.Fatalf("%s: registry build differs from Workload.Build", w.Name())
		}
	}
}

func TestListOrdering(t *testing.T) {
	es := List()
	var names []string
	for _, e := range es {
		names = append(names, e.Name)
	}
	joined := strings.Join(names, " ")
	wantPrefix := "blackscholes swaptions fluidanimate bodytrack dedup ferret"
	if !strings.HasPrefix(joined, wantPrefix) {
		t.Fatalf("paper benchmarks not first in paper order: %s", joined)
	}
	rest := names[6:]
	for i := 1; i < len(rest); i++ {
		if rest[i-1] >= rest[i] {
			t.Fatalf("non-paper entries not alphabetical: %v", rest)
		}
	}
}

func TestCacheTokenCanonicalizes(t *testing.T) {
	a, err := CacheToken("layered:width=16,depth=32")
	if err != nil {
		t.Fatal(err)
	}
	b, err := CacheToken("layered:depth=32,width=16")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("parameter order changed the cache token: %q vs %q", a, b)
	}
	c, err := CacheToken("layered:depth=32,width=8")
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different parameters share a cache token")
	}
}

func TestCacheTokenHashesFileContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.dot")
	write := func(s string) {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("digraph g {\n  a -> b;\n}\n")
	tok1, err := CacheToken("dot:file=" + path)
	if err != nil {
		t.Fatal(err)
	}
	write("digraph g {\n  a -> b;\n  b -> c;\n}\n")
	tok2, err := CacheToken("dot:file=" + path)
	if err != nil {
		t.Fatal(err)
	}
	if tok1 == tok2 {
		t.Fatal("editing the file did not change the cache token")
	}
	if _, err := CacheToken("dot:file=" + filepath.Join(dir, "missing.dot")); err == nil {
		t.Fatal("missing file accepted")
	}
}
