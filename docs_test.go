package cata_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cata"
	_ "cata/internal/batch" // registers the cache and sweep metrics
	_ "cata/internal/exp"   // registers the simulator and open-system metrics
	_ "cata/internal/jobs"  // registers the job queue metrics
	"cata/internal/metrics"
)

// readDoc loads a repository markdown file for drift checks.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return string(b)
}

// policyTable renders the README policy table from the registry. The
// README carries this table verbatim between the policies:begin/end
// markers; regenerate it by running this test and copying the expected
// output it prints on mismatch.
func policyTable() string {
	var b strings.Builder
	b.WriteString("| Label | Params | Summary |\n|---|---|---|\n")
	for _, d := range cata.PolicyDocs() {
		params := "—"
		if len(d.Params) > 0 {
			var ps []string
			for _, p := range d.Params {
				kind := p.Kind
				if len(p.Choices) > 0 {
					kind = strings.Join(p.Choices, "\\|")
				}
				ps = append(ps, "`"+p.Key+"` ("+kind+", default `"+p.Default+"`)")
			}
			params = strings.Join(ps, ", ")
		}
		summary := d.Summary
		if d.Extension {
			summary += " (extension)"
		}
		b.WriteString("| `" + d.Label + "` | " + params + " | " + summary + " |\n")
	}
	return b.String()
}

// TestREADMEListsEveryPolicy: the README policy table is the registry's
// rendering, byte for byte — a registered policy (or a new parameter on
// one) cannot ship without its row. The expected table is printed on
// mismatch so the README is a copy-paste away from correct.
func TestREADMEListsEveryPolicy(t *testing.T) {
	readme := readDoc(t, "README.md")
	docs := cata.PolicyDocs()
	if len(docs) != 9 {
		t.Fatalf("PolicyDocs = %d entries, want 9", len(docs))
	}
	const begin, end = "<!-- policies:begin -->", "<!-- policies:end -->"
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md lacks the %s / %s markers around the policy table", begin, end)
	}
	got := strings.TrimSpace(readme[i+len(begin) : j])
	want := strings.TrimSpace(policyTable())
	if got != want {
		t.Errorf("README.md policy table has drifted from cata.PolicyDocs.\nExpected table between the markers:\n\n%s", want)
	}
}

// TestArchitectureListsEveryMetric: the ARCHITECTURE "Telemetry" table
// names exactly the metrics the default registry exposes, so a metric
// cannot ship undocumented and the table cannot keep a deleted one.
func TestArchitectureListsEveryMetric(t *testing.T) {
	var exposition strings.Builder
	if err := metrics.Default.Write(&exposition); err != nil {
		t.Fatal(err)
	}
	var registered []string
	for _, line := range strings.Split(exposition.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered = append(registered, f[2])
		}
	}
	doc := readDoc(t, "ARCHITECTURE.md")
	i := strings.Index(doc, "| Layer | Metrics |")
	if i < 0 {
		t.Fatal("ARCHITECTURE.md lacks the Telemetry table (| Layer | Metrics |)")
	}
	table, _, _ := strings.Cut(doc[i:], "\n\n")
	var documented []string
	for _, m := range regexp.MustCompile("`(cata_[a-z0-9_]+)").FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}
	sort.Strings(documented)
	if got, want := strings.Join(documented, "\n"), strings.Join(registered, "\n"); got != want {
		t.Errorf("ARCHITECTURE.md Telemetry table has drifted from the registry.\nDocumented:\n%s\n\nRegistered:\n%s", got, want)
	}
}

// TestREADMEListsEveryWorkload: the workloads section names every
// registered workload, so the registry and the docs cannot drift.
func TestREADMEListsEveryWorkload(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, w := range cata.Workloads() {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md workloads section is missing %q", w.Name)
		}
	}
}

// TestCLIHelpDerivesFromPolicyDocs: the labels joined for -policy help
// parse back, so a help string can never advertise an unknown policy.
func TestCLIHelpDerivesFromPolicyDocs(t *testing.T) {
	labels := cata.PolicyLabels()
	if len(labels) != 9 {
		t.Fatalf("PolicyLabels = %v, want 9 labels", labels)
	}
	for _, l := range labels {
		p, err := cata.ParsePolicy(l)
		if err != nil {
			t.Errorf("label %q does not parse: %v", l, err)
		}
		if p.String() != l {
			t.Errorf("label %q round-trips to %q", l, p)
		}
	}
}

// TestArchitectureDocExists: the package map referenced from doc.go and
// the README is present and mentions the load-bearing packages.
func TestArchitectureDocExists(t *testing.T) {
	arch := readDoc(t, "ARCHITECTURE.md")
	for _, pkg := range []string{
		"internal/exp", "internal/batch", "internal/workloads",
		"internal/policies", "internal/program", "internal/tdg",
		"internal/rts", "internal/machine", "internal/sim",
	} {
		if !strings.Contains(arch, pkg) {
			t.Errorf("ARCHITECTURE.md does not mention %s", pkg)
		}
	}
}
