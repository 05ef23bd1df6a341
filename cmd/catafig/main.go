// Command catafig regenerates every table and figure of the paper's
// evaluation section:
//
//	-table1    Table I (processor configuration)
//	-fig4      Figure 4 (speedup + normalized EDP: FIFO, CATS+BL, CATS+SA, CATA)
//	-fig5      Figure 5 (speedup + normalized EDP: CATA, CATA+RSU, TurboMode)
//	-analysis  §V-C reconfiguration-cost analysis (latency, lock waits, overhead)
//	-rsucost   §III-B.4 RSU storage/area/power model
//	-claims    checks the paper's headline §V claims against a fresh matrix
//	-all       everything above
//
// Absolute numbers differ from the paper (behavioral simulator, synthetic
// workloads); the shape of each figure is what reproduces.
package main

import (
	"flag"
	"fmt"
	"os"

	"cata"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "print Table I")
		fig4     = flag.Bool("fig4", false, "regenerate Figure 4")
		fig5     = flag.Bool("fig5", false, "regenerate Figure 5")
		analysis = flag.Bool("analysis", false, "regenerate the §V-C analysis")
		rsucost  = flag.Bool("rsucost", false, "print the RSU cost model")
		claims   = flag.Bool("claims", false, "check the paper's headline claims")
		all      = flag.Bool("all", false, "everything")
		scale    = flag.Float64("scale", 1.0, "workload scale in (0,1]")
		fast     = flag.Int("fast", 16, "fast cores for -analysis")
		csvOut   = flag.String("csv", "", "also write the -fig4/-fig5 matrices as CSV files with this prefix")
	)
	flag.Parse()
	if *all {
		*table1, *fig4, *fig5, *analysis, *rsucost, *claims = true, true, true, true, true, true
	}
	if !(*table1 || *fig4 || *fig5 || *analysis || *rsucost || *claims) {
		flag.Usage()
		os.Exit(2)
	}

	if *table1 {
		section("Table I")
		fmt.Println(cata.TableI())
	}
	if *fig4 {
		section("Figure 4: FIFO, CATS+BL, CATS+SA, CATA (normalized to FIFO)")
		m := mustMatrix(cata.Fig4Policies(), *scale)
		fmt.Println(m.SpeedupTable())
		fmt.Println(m.EDPTable())
		writeCSV(m, *csvOut, "fig4")
	}
	if *fig5 {
		section("Figure 5: CATA, CATA+RSU, TurboMode (normalized to FIFO)")
		m := mustMatrix(cata.Fig5Policies(), *scale)
		fmt.Println(m.SpeedupTable())
		fmt.Println(m.EDPTable())
		writeCSV(m, *csvOut, "fig5")
	}
	if *analysis {
		section(fmt.Sprintf("§V-C analysis: CATA software reconfiguration costs (%d fast cores)", *fast))
		tbl, err := cata.VCAnalysisTable(*fast, 42, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tbl)
		fmt.Println("paper: avg latency 11-65µs; max lock acquisition 4.8-15ms in")
		fmt.Println("bursty apps; average overhead 0.03-3.49%.")
		fmt.Println()
	}
	if *rsucost {
		section("§III-B.4: RSU storage/area/power (3n + log2 n + 2 log2 p bits)")
		fmt.Println(cata.RSUCostTable())
		fmt.Println("paper: <0.0001% of a 32-core die, <50µW.")
		fmt.Println()
	}
	if *claims {
		section("Headline §V claims")
		m := mustMatrix(cata.AllPolicies(), *scale)
		fmt.Println(cata.ClaimsTable(m.Claims()))
	}
}

func mustMatrix(policies []cata.Policy, scale float64) *cata.Matrix {
	m, err := cata.RunMatrix(cata.MatrixConfig{Policies: policies, Scale: scale})
	if err != nil {
		fatal(err)
	}
	return m
}

// writeCSV dumps a matrix to <prefix><name>.csv when a prefix was given.
func writeCSV(m *cata.Matrix, prefix, name string) {
	if prefix == "" {
		return
	}
	path := prefix + name + ".csv"
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := m.WriteCSV(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("(csv written to %s)\n\n", path)
}

func section(title string) {
	fmt.Printf("==== %s ====\n\n", title)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catafig:", err)
	os.Exit(1)
}
