package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(t *testing.T) config {
	return config{seed: 3, budget: 200 * time.Millisecond, tmp: t.TempDir(), tiny: true}
}

// printed encodes r as the benchmark prints it and checks that each
// declared metric appears exactly once, with its declared unit, and
// that nothing else does.
func checkPrinted(t *testing.T, r result, want []struct{ Name, Unit string }) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	for _, m := range want {
		if n := strings.Count(line, `"`+m.Name+`":{"value":`); n != 1 {
			t.Errorf("%s printed %d times", m.Name, n)
		}
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("printed %d metrics, declared %d", len(r.Metrics), len(want))
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}

func TestDeclaredMatchesBenchmark(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workload) != len(workloadList) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workload), len(workloadList))
	}
	for i, w := range d.Workload {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: declared %s, benchmark has %s", i, w.Name, workloadList[i].name)
		}
	}
	names := func(ms []struct{ Name, Unit string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name)
		}
		return strings.Join(s, ",")
	}
	if got, want := strings.Join(endToEnd, ","), names(d.EndToEnd); got != want {
		t.Errorf("end-to-end metrics:\n benchmark %s\n declared  %s", got, want)
	}
	if got, want := strings.Join(perLayer, ","), names(d.PerLayer); got != want {
		t.Errorf("per-layer metrics:\n benchmark %s\n declared  %s", got, want)
	}
}

func TestEveryMetricPrintedOnce(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			r, err := untraced(w, tinyConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, r, d.EndToEnd)
			c := tinyConfig(t)
			r, err = traced(w, c, c.tmp+"/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, r, d.PerLayer)
		})
	}
}

func TestInjectedBadResultCounts(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			c := tinyConfig(t)
			c.corrupt = true
			r, err := untraced(w, c)
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed == 0 || r.Metrics["success_rate"].Value >= 1 {
				t.Errorf("corrupted output passed: correct=%v failed=%d success_rate=%v",
					r.Correct, r.Failed, r.Metrics["success_rate"].Value)
			}
		})
	}
}

func TestSimulatedFiguresIgnoreTracing(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			var t1, t2 tally
			off, err := w.run(tinyConfig(t), &t1, nil)
			if err != nil {
				t.Fatal(err)
			}
			on, err := w.run(tinyConfig(t), &t2, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"sim_speedup_geomean", "sim_norm_edp_geomean", "sim_resp_mean_ms"} {
				if a, b := off.e2e[name], on.e2e[name]; a != b || a.Value == 0 {
					t.Errorf("%s: %v untraced, %v traced", name, a.Value, b.Value)
				}
			}
		})
	}
}
