// Command catabench measures the simulator's hot paths and gates them
// against a committed baseline, recording the bench trajectory as
// BENCH_<n>.json files.
//
// Capture a numbered benchmark file (BENCH_<n>.json, n auto-incremented):
//
//	catabench [-dir .] [-scale 0.4] [-seed 42] [-benchtime 1s]
//
// Capture to an explicit path:
//
//	catabench -out /tmp/bench.json
//
// Compare a capture against a baseline (exit 1 on regression):
//
//	catabench -compare BENCH_2.json -against /tmp/bench.json [-tol 0.15]
//
// Capture with pprof evidence (one CPU and/or heap profile per suite
// stage, paths recorded in the capture's profiles metadata — CI uploads
// these next to BENCH_ci.json):
//
//	catabench -out /tmp/bench.json -cpuprofile /tmp/prof -memprofile /tmp/prof
//
// The suite runs the bench_test.go figure matrices, the six paper
// workloads under CATA, an open-system soak, event-engine and TDG
// microbenchmarks, and per-policy makespan checksums, all at fixed
// seeds. ns/op and allocs/op are gated with the relative tolerance;
// checksum mismatches always fail (they mean simulation behavior
// changed, not just speed).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cata/internal/perf"
)

func main() {
	var (
		dir       = flag.String("dir", ".", "directory for auto-numbered BENCH_<n>.json captures")
		out       = flag.String("out", "", "explicit output path (overrides -dir auto-numbering)")
		scale     = flag.Float64("scale", 0.4, "workload scale in (0,1]")
		seed      = flag.Uint64("seed", 42, "workload seed")
		benchtime = flag.Duration("benchtime", time.Second, "per-entry measurement target")
		compare   = flag.String("compare", "", "baseline BENCH file; compare mode, runs no benchmarks")
		against   = flag.String("against", "", "capture to gate against -compare's baseline")
		tol       = flag.Float64("tol", 0.15, "relative tolerance for ns/op and allocs/op gates")
		gate      = flag.String("gate", "all", "which gates are binding: all, or portable (allocs/op + checksums only — use when the baseline came from different hardware)")
		quiet     = flag.Bool("q", false, "suppress per-entry progress")
		cpuProf   = flag.String("cpuprofile", "", "directory for per-stage pprof CPU profiles (recorded in the capture's profiles metadata)")
		memProf   = flag.String("memprofile", "", "directory for per-stage pprof heap profiles (recorded in the capture's profiles metadata)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "catabench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	if *gate != "all" && *gate != "portable" {
		fmt.Fprintf(os.Stderr, "catabench: -gate must be all or portable, got %q\n", *gate)
		os.Exit(2)
	}
	if *compare != "" {
		os.Exit(runCompare(*compare, *against, *tol, *gate))
	}
	os.Exit(runCapture(*dir, *out, *scale, *seed, *benchtime, *quiet, *cpuProf, *memProf))
}

func runCapture(dir, out string, scale float64, seed uint64, benchtime time.Duration, quiet bool, cpuProf, memProf string) int {
	opts := perf.Options{
		Scale: scale, Seed: seed, BenchTime: benchtime,
		CPUProfileDir: cpuProf, MemProfileDir: memProf,
	}
	if !quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	f, err := perf.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catabench:", err)
		return 1
	}
	path := out
	if path == "" {
		path, err = perf.NextBenchPath(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "catabench:", err)
			return 1
		}
	}
	if err := f.Write(path); err != nil {
		fmt.Fprintln(os.Stderr, "catabench:", err)
		return 1
	}
	fmt.Println(path)
	return 0
}

func runCompare(basePath, curPath string, tol float64, gate string) int {
	if curPath == "" {
		fmt.Fprintln(os.Stderr, "catabench: -compare requires -against CAPTURE")
		return 2
	}
	base, err := perf.ReadFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catabench:", err)
		return 1
	}
	cur, err := perf.ReadFile(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catabench:", err)
		return 1
	}
	rep, err := perf.Compare(base, cur, tol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catabench:", err)
		return 1
	}
	if gate == "portable" {
		rep.IgnoreMetric("ns/op")
	}
	fmt.Print(rep.Render())
	if rep.Regressions > 0 {
		return 1
	}
	return 0
}
