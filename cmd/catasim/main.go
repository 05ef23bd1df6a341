// Command catasim runs one CATA simulation: a workload under a policy
// with a fast-core budget, printing the measured execution time, energy,
// EDP and reconfiguration statistics.
//
// Workloads and policies are both specs resolved against their
// registries: a bare name or a parameterized form ("name:key=val,...").
// -list prints every registered workload and policy with its
// parameters. -vs runs a second policy on the same configuration and
// reports speedup and normalized EDP against it (e.g. the static AMTHA
// mapping versus CATA's dynamic acceleration); -baseline is the FIFO
// shorthand.
//
// Examples:
//
//	catasim -workload dedup -policy CATA -fast 16
//	catasim -workload 'layered:seed=7,width=16,depth=32' -policy CATA+RSU -fast 24
//	catasim -workload dedup -policy AMTHA:tiebreak=spread -vs CATA
//	catasim -workload swaptions -export swaptions.json
//	catasim -workload trace:file=swaptions.json -policy CATA -fast 16
//	catasim -workload 'forkjoin:width=8,phases=4' -arrivals 'poisson:lambda=2000,jobs=40,deadline=5ms'
//	catasim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"cata"
)

func main() {
	var (
		workload = flag.String("workload", "swaptions", "workload spec, name[:key=val,...] (see -list)")
		policy   = flag.String("policy", "CATA", "policy spec, name[:key=val,...]: "+strings.Join(cata.PolicyLabels(), " | ")+" (see -list)")
		fast     = flag.Int("fast", 16, "power budget (fast cores)")
		cores    = flag.Int("cores", 32, "machine size")
		seed     = flag.Uint64("seed", 42, "workload seed")
		scale    = flag.Float64("scale", 1.0, "workload scale in (0,1]")
		list     = flag.Bool("list", false, "list registered workloads and policies with their parameters, then exit")
		baseline = flag.Bool("baseline", false, "also run FIFO and report speedup / normalized EDP")
		vs       = flag.String("vs", "", "also run this policy spec and report speedup / normalized EDP against it")
		traceOut = flag.String("trace", "", "write the run's flight recording (Chrome trace JSON) to this file")
		dotOut   = flag.String("dot", "", "write the workload's TDG as Graphviz DOT to this file and exit")
		export   = flag.String("export", "", "write the workload as a replayable JSON trace to this file and exit")
		timeline = flag.Bool("timeline", false, "print a per-core ASCII Gantt chart of the run")
		tlWidth  = flag.Int("timeline-width", 100, "ASCII Gantt chart width in columns (with -timeline)")
		arrivals = flag.String("arrivals", "", "open-system traffic: arrival process spec, e.g. 'poisson:lambda=2000,jobs=40,deadline=5ms,cap=8'")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range cata.Workloads() {
			tasks := fmt.Sprintf("%5d tasks", w.Tasks)
			if w.FileBacked {
				tasks = "  file-backed"
			}
			fmt.Printf("%-14s %s  %s\n", w.Name, tasks, w.Description)
			for _, p := range w.Params {
				fmt.Printf("%-14s     %-10s %s (%s, default %s)\n", "", p.Key, p.Help, p.Kind, p.Default)
			}
		}
		fmt.Println("\npolicies:")
		for _, d := range cata.PolicyDocs() {
			kind := "      paper"
			if d.Extension {
				kind = "  extension"
			}
			fmt.Printf("%-14s %s  %s\n", d.Label, kind, d.Summary)
			for _, p := range d.Params {
				fmt.Printf("%-14s     %-10s %s (%s, default %s)\n", "", p.Key, p.Help, p.Kind, p.Default)
			}
		}
		return
	}

	if *dotOut != "" && *export != "" {
		fatal(fmt.Errorf("-dot and -export are exclusive; run twice to write both"))
	}
	if *dotOut != "" || *export != "" {
		path, kind := *dotOut, "Graphviz DOT"
		write := cata.ExportDOT
		if *export != "" {
			path, kind = *export, "JSON trace"
			write = cata.ExportTrace
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := write(f, *workload, *seed, *scale, nil); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s of %s written to %s\n", kind, *workload, path)
		return
	}

	pol, err := cata.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	cfg := cata.RunConfig{
		Workload: *workload, Policy: pol,
		FastCores: *fast, Cores: *cores, Seed: *seed, Scale: *scale,
		Arrivals: *arrivals,
	}
	if *timeline {
		cfg.TimelineTo = os.Stdout
		cfg.TimelineWidth = *tlWidth
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		cfg.TraceTo = f
	}
	// Run through the batch engine: the optional FIFO baseline executes
	// in parallel with the measured run. A first Ctrl-C stops dispatch
	// (in-flight simulations drain — completed results still print); a
	// second one kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	var compare []cata.Policy
	if *baseline {
		compare = append(compare, cata.PolicyFIFO)
	}
	if *vs != "" {
		vp, err := cata.ParsePolicy(*vs)
		if err != nil {
			fatal(err)
		}
		compare = append(compare, vp)
	}
	cfgs := []cata.RunConfig{cfg}
	for _, cp := range compare {
		if cp == pol {
			continue
		}
		ref := cfg
		ref.Policy = cp
		ref.TraceTo = nil
		ref.TimelineTo = nil
		cfgs = append(cfgs, ref)
	}
	batch, err := cata.RunBatch(ctx, cfgs, cata.BatchOptions{})
	// A canceled batch may still hold a finished measured run — print
	// whatever completed instead of discarding it. A failing baseline
	// must not suppress the measured run's output either; its error is
	// reported after the stats print below.
	if len(batch) == 0 || batch[0].Err != nil {
		if err != nil {
			fatal(err)
		}
		fatal(batch[0].Err)
	}
	res := batch[0].Result
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (open in Perfetto — ui.perfetto.dev — or chrome://tracing)\n", *traceOut)
	}

	fmt.Printf("%s on %d cores (%d fast) under %v, seed %d, scale %g\n",
		*workload, *cores, *fast, pol, *seed, *scale)
	fmt.Printf("  execution time        %v\n", res.Makespan)
	fmt.Printf("  energy                %.4f J\n", res.Joules)
	fmt.Printf("  EDP                   %.6f Js\n", res.EDP)
	fmt.Printf("  tasks run             %d (%d critical)\n", res.TasksRun, res.CriticalTasks)
	fmt.Printf("  avg core utilization  %.1f%%\n", res.AvgUtilization*100)
	fmt.Printf("  DVFS transitions      %d\n", res.Transitions)
	if res.ReconfigOps > 0 {
		fmt.Printf("  reconfiguration ops   %d\n", res.ReconfigOps)
		if res.ReconfigLatencyAvg > 0 {
			fmt.Printf("  reconfig latency      avg %v, max %v\n", res.ReconfigLatencyAvg, res.ReconfigLatencyMax)
			fmt.Printf("  worst lock wait       %v\n", res.MaxLockWait)
			fmt.Printf("  reconfig overhead     %.2f%%\n", res.ReconfigOverheadPct)
		}
	}
	if res.Inversions > 0 {
		fmt.Printf("  priority inversions   %d\n", res.Inversions)
	}
	if o := res.Open; o != nil {
		fmt.Printf("open-system traffic (%s)\n", o.Process)
		fmt.Printf("  jobs                  %d arrived, %d completed", o.JobsArrived, o.JobsCompleted)
		if o.JobsShed > 0 {
			fmt.Printf(", %d shed", o.JobsShed)
		}
		fmt.Println()
		fmt.Printf("  response time         mean %v, max %v\n", o.MeanResponse, o.MaxResponse)
		fmt.Printf("  percentiles           p50 %v, p99 %v, p99.9 %v\n", o.P50, o.P99, o.P999)
		if o.DeadlineMissed > 0 || o.MissRate > 0 {
			fmt.Printf("  deadline misses       %d (%.2f%%)\n", o.DeadlineMissed, o.MissRate*100)
		}
		fmt.Printf("  peak in system        %d\n", o.PeakInSystem)
		if o.TailEDP > 0 {
			fmt.Printf("  tail EDP (J·s @p99)   %.6f\n", o.TailEDP)
		}
		for _, w := range o.Windows {
			fmt.Printf("  window [%v, %v)  %4d jobs  p50 %v  p99 %v  p99.9 %v\n",
				w.Start, w.End, w.Completed, w.P50, w.P99, w.P999)
		}
	}

	for _, r := range batch[1:] {
		if err := r.Err; err != nil {
			fatal(fmt.Errorf("%v reference: %w", r.Config.Policy, err))
		}
		ref := r.Result
		fmt.Printf("  %-22sspeedup %.3f, normalized EDP %.3f\n", "vs "+r.Config.Policy.String(),
			float64(ref.Makespan)/float64(res.Makespan), res.EDP/ref.EDP)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catasim:", err)
	os.Exit(1)
}
