package exp

import (
	"fmt"
	"strings"

	"cata/internal/machine"
	"cata/internal/rsu"
	"cata/internal/sim"
)

// VCRow is one benchmark's reconfiguration-cost analysis under software
// CATA (§V-C).
type VCRow struct {
	Workload           string
	ReconfigOps        int64
	ReconfigLatencyAvg sim.Time
	ReconfigLatencyMax sim.Time
	LockWaitMax        sim.Time // max(RSM lock, kernel driver lock)
	OverheadPct        float64
}

// VCAnalysis runs CATA on every benchmark and collects the §V-C metrics.
// The paper reports 11–65 µs average reconfiguration latencies,
// millisecond-scale worst-case lock acquisitions in the bursty
// applications, and 0.03–3.49% average reconfiguration overhead.
func VCAnalysis(fastCores int, seed uint64, scale float64) ([]VCRow, error) {
	rows := make([]VCRow, 0, len(defaultWorkloads()))
	for _, w := range defaultWorkloads() {
		m, err := Run(RunSpec{
			Workload: w, Policy: CATA, FastCores: fastCores,
			Seed: seed, Scale: scale,
		})
		if err != nil {
			return nil, err
		}
		lockMax := m.LockWaitMax
		if m.DriverLockWaitMax > lockMax {
			lockMax = m.DriverLockWaitMax
		}
		rows = append(rows, VCRow{
			Workload:           w,
			ReconfigOps:        m.ReconfigOps,
			ReconfigLatencyAvg: m.ReconfigLatencyAvg,
			ReconfigLatencyMax: m.ReconfigLatencyMax,
			LockWaitMax:        lockMax,
			OverheadPct:        m.ReconfigOverheadPct,
		})
	}
	return rows, nil
}

// VCTable renders the analysis rows.
func VCTable(rows []VCRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %12s %12s %12s %9s\n",
		"benchmark", "ops", "lat(avg)", "lat(max)", "lockwait(max)", "overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %12v %12v %12v %8.2f%%\n",
			r.Workload, r.ReconfigOps, r.ReconfigLatencyAvg,
			r.ReconfigLatencyMax, r.LockWaitMax, r.OverheadPct)
	}
	return b.String()
}

// RSUCostTable renders the §III-B.4 storage/area/power model for a range
// of machine sizes, with the paper's 32-core dual-rail point included.
func RSUCostTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %8s %12s %14s %10s\n",
		"cores", "levels", "bits", "area(µm²)", "die fraction", "power(µW)")
	for _, n := range []int{8, 16, 32, 64, 128} {
		for _, p := range []int{2, 4} {
			c := rsu.CostOf(n, p)
			fmt.Fprintf(&b, "%-8d %-8d %8d %12.1f %13.7f%% %10.1f\n",
				n, p, c.StorageBits, c.AreaUm2, c.DieFraction*100, c.PowerWatts*1e6)
		}
	}
	return b.String()
}

// TableI renders the simulated processor configuration in the shape of
// the paper's Table I, at the level of detail the model carries.
func TableI() string {
	cfg := machine.TableIConfig()
	fast := cfg.Power.Point(cfg.FastLevel)
	slow := cfg.Power.Point(cfg.SlowLevel)
	var b strings.Builder
	fmt.Fprintf(&b, "Processor configuration (Table I, simulated subset)\n")
	fmt.Fprintf(&b, "  Core count              %d\n", cfg.Cores)
	fmt.Fprintf(&b, "  Fast cores              %v, %g V\n", fast.Freq, fast.Voltage)
	fmt.Fprintf(&b, "  Slow cores              %v, %g V\n", slow.Freq, slow.Voltage)
	fmt.Fprintf(&b, "  DVFS transition latency %v\n", cfg.TransitionLatency)
	fmt.Fprintf(&b, "  Idle spin before halt   %v\n", cfg.IdleSpin)
	fmt.Fprintf(&b, "  C1 -> C3 demotion       %v\n", cfg.SleepAfter)
	fmt.Fprintf(&b, "  Wake latency (C1/C3)    %v / %v\n", cfg.WakeLatencyC1, cfg.WakeLatencyC3)
	fmt.Fprintf(&b, "  Core dynamic power      %.2f W (fast, active), %.2f W (slow, active)\n",
		cfg.Power.DynamicWatts(cfg.FastLevel, 1), cfg.Power.DynamicWatts(cfg.SlowLevel, 1))
	fmt.Fprintf(&b, "  Core leakage            %.2f W (fast), %.2f W (slow)\n",
		cfg.Power.LeakWatts(cfg.FastLevel), cfg.Power.LeakWatts(cfg.SlowLevel))
	fmt.Fprintf(&b, "  Uncore power            %.2f W/core\n", cfg.Power.UncoreWattsPerCore)
	fmt.Fprintf(&b, "  Micro-architectural parameters of Table I (OoO pipeline, caches,\n")
	fmt.Fprintf(&b, "  NoC) are folded into per-task cycle/memory-time distributions;\n")
	fmt.Fprintf(&b, "  see ARCHITECTURE.md, \"Data flow of one run\", step 2.\n")
	return b.String()
}
