// Command perfbench is the repository benchmark: it drives the CATA
// simulator and the catad service from outside, through their public
// entry points, on three workloads, checks every output, and prints one
// JSON result line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off;
// --trace 1 runs the workload again with spans recorded around every
// call into a layer and prints the per-layer metrics. README.md in this
// directory maps each per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	seed    uint64        // base of every derived input seed
	budget  time.Duration // length of the timed phase
	tmp     string        // scratch directory, removed at exit
	tiny    bool          // self-test sizes
	corrupt bool          // self-test: corrupt one output before it is checked
}

// workload is one named input set. run measures the end-to-end figures;
// when tr is non-nil it records spans around its calls into the program
// and also returns the per-layer figures those spans give. layers then
// adds the per-layer figures of its own traced probes.
type workload struct {
	name   string
	run    func(c config, t *tally, tr *tracer) (outcome, error)
	layers func(c config, t *tally, tr *tracer) (figures, error)
}

// outcome is what one run of a workload measured.
type outcome struct {
	e2e   figures // end-to-end figures
	layer figures // per-layer figures, from a traced run only
}

var workloadList = []workload{
	{"paper-matrix", runMatrix, matrixLayers},
	{"open-soak", runSoak, soakLayers},
	{"catad-service", runService, serviceLayers},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout)) }

func cli(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-matrix, open-soak or catad-service")
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	heldout := fs.Bool("heldout", false, "derive inputs from the held-out stream of --seed, for checking a claim on data it was not tuned on")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and the span log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-matrix|open-soak|catad-service, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	c := config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), tmp: tmp}
	if *heldout {
		c.seed = derive(*seed, "heldout")
	}
	var res result
	if *trace == 1 {
		spanLog := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		res, err = traced(w, c, spanLog)
	} else {
		res, err = untraced(w, c)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// untraced measures the end-to-end figures.
func untraced(w workload, c config) (result, error) {
	var t tally
	o, err := w.run(c, &t, nil)
	if err != nil {
		t.op(err)
		o.e2e = figures{}
	}
	f := o.e2e
	f.set("success_rate", t.successRate(), "ratio")
	return t.result(f), missing(f, endToEnd)
}

// traced runs the workload four times for a quarter of the budget each,
// untraced, traced, traced, untraced, so drift in machine speed cancels
// from the tracing overhead it reports, and then derives the per-layer
// figures from the traced runs' spans. Layers the workload does not
// exercise are measured by a short traced pass of the workload that
// does, so every per-layer metric is a measurement.
func traced(w workload, c config, spanLog string) (result, error) {
	var t tally
	quarter := c
	quarter.budget = c.budget / 4
	tr := newTracer()
	var plain, spanned float64
	var spannedLayer figures
	for _, on := range []bool{false, true, true, false} {
		var rtr *tracer
		if on {
			rtr = tr
		}
		o, err := w.run(quarter, &t, rtr)
		if err != nil {
			t.op(err)
			return t.result(figures{}), err
		}
		if on {
			spanned += o.e2e["sim_tasks_per_s"].Value
			spannedLayer = o.layer
		} else {
			plain += o.e2e["sim_tasks_per_s"].Value
		}
	}
	f := figures{}
	for _, other := range workloadList {
		if other.name == w.name {
			continue
		}
		oc := c
		oc.tiny = true
		oc.budget = 500 * time.Millisecond
		otr := newTracer()
		o, err := other.run(oc, &t, otr)
		if err != nil {
			t.op(err)
			continue
		}
		f.merge(o.layer)
		g, err := other.layers(oc, &t, otr)
		if err != nil {
			t.op(err)
			continue
		}
		f.merge(g)
	}
	f.merge(spannedLayer)
	g, err := w.layers(c, &t, tr)
	if err != nil {
		t.op(err)
	}
	f.merge(g)
	g, err = probes(c, &t, tr)
	if err != nil {
		t.op(err)
	}
	f.merge(g)
	f.set("perfbench.span_overhead_pct", 100*(plain/spanned-1), "%")
	if err := tr.write(spanLog); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return t.result(f), missing(f, perLayer)
}

// missing reports metrics the benchmark promised but did not produce.
func missing(f figures, names []string) error {
	for _, n := range names {
		if _, ok := f[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	return nil
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares.
var endToEnd = []string{
	"setup_s", "sim_tasks_per_s", "allocs_per_task", "heap_peak_mb",
	"req_per_s", "req_p50_ms", "req_p99_ms", "success_rate",
	"sim_speedup_geomean", "sim_norm_edp_geomean", "sim_resp_mean_ms",
}

var perLayer = []string{
	"workloads.build_ms",
	"exp.simulate_ms.fifo", "exp.simulate_ms.cats_bl", "exp.simulate_ms.cats_sa",
	"exp.simulate_ms.cata", "exp.simulate_ms.cata_rsu", "exp.simulate_ms.turbo",
	"sim.events_per_task", "sim.ns_per_event",
	"rts.simulate_us_per_job",
	"tdg.retained_kb_per_job",
	"rsm.reconfig_ops_per_task", "rsm.accel_denied_frac", "rsm.reconfig_overhead_pct",
	"cpufreq.driver_lock_wait_max_us",
	"machine.dvfs_transitions_per_task",
	"sched.inversions_per_critical_task",
	"opensys.schedule_ms", "opensys.shed_frac", "opensys.miss_rate",
	"batch.sweep_efficiency", "batch.key_us", "batch.cache_get_us", "batch.cache_put_us",
	"batch.cache_hit_frac",
	"jobs.queue_wait_p50_ms", "jobs.queue_wait_p99_ms", "jobs.run_ms.hit", "jobs.run_ms.miss",
	"server.submit_ms", "server.result_ms",
	"trace.overhead_pct",
	"perfbench.span_overhead_pct",
}
