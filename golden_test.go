package cata_test

// Golden regression fixtures: one small committed JSON per policy,
// capturing every deterministic output of a tiny fixed-seed run of the
// paper's six workloads. Any drift in makespans, energy, or scheduler
// counters fails with a field-level diff. The fixtures pin simulation
// *behavior*; performance work on the engine must land with zero golden
// diffs (the perf harness's checksums gate the same property across
// machines at larger scale).
//
// Regenerate intentionally with:
//
//	go test -run TestGoldenFixtures -update .

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cata/internal/exp"
	"cata/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures instead of comparing")

const (
	goldenScale = 0.05
	goldenSeed  = 7
	goldenFast  = 8
	goldenCores = 16
)

// goldenFile is one policy's fixture.
type goldenFile struct {
	Policy    string       `json:"policy"`
	Scale     float64      `json:"scale"`
	Seed      uint64       `json:"seed"`
	FastCores int          `json:"fast_cores"`
	Cores     int          `json:"cores"`
	Cells     []goldenCell `json:"cells"`
}

// goldenCell holds the deterministic outputs of one workload run. Integer
// fields compare exactly; energy values are %.6g strings — identical on
// any one platform, and coarse enough to absorb sub-ulp float variance
// across architectures. The same holds for the other float fields.
type goldenCell struct {
	Workload      string `json:"workload"`
	MakespanPs    int64  `json:"makespan_ps"`
	Tasks         int64  `json:"tasks"`
	Critical      int64  `json:"critical"`
	Inversions    int64  `json:"inversions"`
	Steals        int64  `json:"steals"`
	StaticBinding int64  `json:"static_binding"`
	Transitions   int64  `json:"transitions"`
	ReconfigOps   int64  `json:"reconfig_ops"`
	Joules        string `json:"joules"`
	EDP           string `json:"edp"`

	// Mechanism harvest: RSM/RSU decision counters, software
	// reconfiguration latencies and lock waits (ps), TurboMode handoffs
	// and core utilization.
	AccelsGranted       int64  `json:"accels_granted"`
	AccelsDenied        int64  `json:"accels_denied"`
	BudgetUtilization   string `json:"budget_utilization"`
	ReconfigLatencyAvg  int64  `json:"reconfig_latency_avg_ps"`
	ReconfigLatencyMax  int64  `json:"reconfig_latency_max_ps"`
	LockWaitMax         int64  `json:"lock_wait_max_ps"`
	DriverLockWaitMax   int64  `json:"driver_lock_wait_max_ps"`
	ReconfigOverheadPct string `json:"reconfig_overhead_pct"`
	TurboReassigns      int64  `json:"turbo_reassigns"`
	AvgUtilization      string `json:"avg_utilization"`
}

func goldenWorkloads() []string { return workloads.Names() }

func buildGolden(t *testing.T, policy exp.Policy) goldenFile {
	t.Helper()
	g := goldenFile{
		Policy:    policy.String(),
		Scale:     goldenScale,
		Seed:      goldenSeed,
		FastCores: goldenFast,
		Cores:     goldenCores,
	}
	for _, w := range goldenWorkloads() {
		m, err := exp.Run(exp.RunSpec{
			Workload: w, Policy: policy,
			FastCores: goldenFast, Cores: goldenCores,
			Seed: goldenSeed, Scale: goldenScale,
		})
		if err != nil {
			t.Fatalf("golden run %v/%s: %v", policy, w, err)
		}
		g.Cells = append(g.Cells, goldenCell{
			Workload:      w,
			MakespanPs:    int64(m.Makespan),
			Tasks:         m.TasksRun,
			Critical:      m.CriticalTasks,
			Inversions:    m.Inversions,
			Steals:        m.Steals,
			StaticBinding: m.StaticBinding,
			Transitions:   m.Transitions,
			ReconfigOps:   m.ReconfigOps,
			Joules:        fmt.Sprintf("%.6g", m.Joules),
			EDP:           fmt.Sprintf("%.6g", m.EDP),

			AccelsGranted:       m.AccelsGranted,
			AccelsDenied:        m.AccelsDenied,
			BudgetUtilization:   fmt.Sprintf("%.6g", m.BudgetUtilization),
			ReconfigLatencyAvg:  int64(m.ReconfigLatencyAvg),
			ReconfigLatencyMax:  int64(m.ReconfigLatencyMax),
			LockWaitMax:         int64(m.LockWaitMax),
			DriverLockWaitMax:   int64(m.DriverLockWaitMax),
			ReconfigOverheadPct: fmt.Sprintf("%.6g", m.ReconfigOverheadPct),
			TurboReassigns:      m.TurboReassigns,
			AvgUtilization:      fmt.Sprintf("%.6g", m.AvgUtilization),
		})
	}
	return g
}

func goldenPath(policy exp.Policy) string {
	return filepath.Join("testdata", "golden", policy.String()+".json")
}

func TestGoldenFixtures(t *testing.T) {
	for _, policy := range append(exp.AllPolicies(), exp.ExtensionPolicies()...) {
		t.Run(policy.String(), func(t *testing.T) {
			got := buildGolden(t, policy)
			path := goldenPath(policy)
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run `go test -run TestGoldenFixtures -update .`): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}
			diffGolden(t, want, got)
		})
	}
}

// diffGolden reports every drifted field by name, not just the first, so
// a regression reads as a story rather than a blob comparison.
func diffGolden(t *testing.T, want, got goldenFile) {
	t.Helper()
	if want.Scale != got.Scale || want.Seed != got.Seed ||
		want.FastCores != got.FastCores || want.Cores != got.Cores {
		t.Fatalf("fixture parameters changed: fixture %+v vs test %+v — regenerate with -update",
			headerOf(want), headerOf(got))
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell count: fixture %d vs current %d", len(want.Cells), len(got.Cells))
	}
	for i, w := range want.Cells {
		g := got.Cells[i]
		if w.Workload != g.Workload {
			t.Errorf("cell %d: workload %q vs %q", i, w.Workload, g.Workload)
			continue
		}
		cmp := func(field string, want, got any) {
			if want != got {
				t.Errorf("%s: %s drifted: fixture %v, current %v", w.Workload, field, want, got)
			}
		}
		cmp("makespan_ps", w.MakespanPs, g.MakespanPs)
		cmp("tasks", w.Tasks, g.Tasks)
		cmp("critical", w.Critical, g.Critical)
		cmp("inversions", w.Inversions, g.Inversions)
		cmp("steals", w.Steals, g.Steals)
		cmp("static_binding", w.StaticBinding, g.StaticBinding)
		cmp("transitions", w.Transitions, g.Transitions)
		cmp("reconfig_ops", w.ReconfigOps, g.ReconfigOps)
		cmp("joules", w.Joules, g.Joules)
		cmp("edp", w.EDP, g.EDP)
		cmp("accels_granted", w.AccelsGranted, g.AccelsGranted)
		cmp("accels_denied", w.AccelsDenied, g.AccelsDenied)
		cmp("budget_utilization", w.BudgetUtilization, g.BudgetUtilization)
		cmp("reconfig_latency_avg_ps", w.ReconfigLatencyAvg, g.ReconfigLatencyAvg)
		cmp("reconfig_latency_max_ps", w.ReconfigLatencyMax, g.ReconfigLatencyMax)
		cmp("lock_wait_max_ps", w.LockWaitMax, g.LockWaitMax)
		cmp("driver_lock_wait_max_ps", w.DriverLockWaitMax, g.DriverLockWaitMax)
		cmp("reconfig_overhead_pct", w.ReconfigOverheadPct, g.ReconfigOverheadPct)
		cmp("turbo_reassigns", w.TurboReassigns, g.TurboReassigns)
		cmp("avg_utilization", w.AvgUtilization, g.AvgUtilization)
	}
}

func headerOf(g goldenFile) string {
	return fmt.Sprintf("scale=%g seed=%d fast=%d cores=%d", g.Scale, g.Seed, g.FastCores, g.Cores)
}
