// Command catasweep runs the ablation sweeps that probe the simulator's
// design choices, beyond the paper's headline matrix:
//
//	-sweep budget       power budget 2..30 fast cores (CATA, CATA+RSU, TurboMode)
//	-sweep latency      DVFS transition latency 1µs..400µs (CATA vs CATA+RSU)
//	-sweep granularity  workload scale 0.2..1.0 (task-count sensitivity)
//	-sweep seeds        seed sensitivity of the headline speedups
//	-sweep extensions   beyond-the-paper policies at a fixed budget
//	-sweep policies     one row per -policies policy at a fixed budget
//
// Each sweep prints one row per parameter value with speedup over FIFO at
// the matching configuration, and normalized EDP.
//
// -workload accepts a workload spec — a registered name or a
// parameterized form such as 'layered:seed=7,width=16,depth=32' or
// 'trace:file=capture.json' (see catasim -list). -policies selects the
// policy set of the policies sweep ("all", "paper", "extensions", or a
// comma-separated list of policy specs, themselves optionally
// parameterized — 'AMTHA:tiebreak=spread,CATA') and implies -sweep
// policies:
//
//	catasweep -workload 'layered:seed=7,width=16,depth=32' -policies all
//	catasweep -workload dedup -policies 'AMTHA,CATA,CATS+BL:theta=0.8'
//
// Sweeps execute through the batch engine: -j bounds parallelism, -cache
// persists completed runs to a JSONL file as they finish, and a sweep
// killed mid-flight (Ctrl-C) re-invoked with -resume completes the
// remaining runs without redoing finished ones. -progress streams
// per-run status (done/total, ETA, live best-EDP) to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cata"
)

func main() {
	var (
		sweep    = flag.String("sweep", "", "budget | latency | granularity | seeds | extensions | policies (default budget, or policies when -policies is set)")
		workload = flag.String("workload", "swaptions", "workload spec to sweep, name[:key=val,...]")
		policies = flag.String("policies", "", "policies for the policies sweep: all | paper | extensions | comma-separated policy specs, name[:key=val,...]")
		fast     = flag.Int("fast", 16, "fast cores (fixed for non-budget sweeps)")
		scale    = flag.Float64("scale", 1.0, "workload scale (fixed for non-granularity sweeps)")
		parallel = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cacheTo  = flag.String("cache", "", "persist completed runs to this JSONL file")
		resume   = flag.Bool("resume", false, "skip runs already present in the -cache file")
		progress = flag.Bool("progress", false, "stream per-run progress to stderr")
	)
	flag.Parse()

	if *resume && *cacheTo == "" {
		fmt.Fprintln(os.Stderr, "catasweep: -resume requires -cache")
		os.Exit(2)
	}
	name := *sweep
	if name == "" {
		name = "budget"
		if *policies != "" {
			name = "policies"
		}
	}
	pols, err := parsePolicies(*policies)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catasweep: %v\n", err)
		os.Exit(2)
	}
	p, err := buildPlan(name, *workload, *fast, *scale, pols)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catasweep: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal cancels the sweep (in-flight runs drain); after
		// it, unregister so a second Ctrl-C kills the process outright.
		<-ctx.Done()
		stop()
	}()
	opts := cata.BatchOptions{Parallelism: *parallel, CachePath: *cacheTo, Resume: *resume}
	if *progress {
		opts.Progress = os.Stderr
	}
	results, err := cata.RunBatch(ctx, p.configs, opts)
	failed := false
	switch {
	case errors.Is(err, context.Canceled):
		if *cacheTo != "" {
			fmt.Fprintf(os.Stderr, "catasweep: interrupted; finished runs are in %s — rerun with -resume to continue\n", *cacheTo)
		}
		fatal(err)
	case err != nil && len(results) == len(p.configs):
		// Cache write trouble only: every simulation still ran, so
		// render the table rather than discarding computed results.
		fmt.Fprintln(os.Stderr, "catasweep:", err)
		failed = true
	case err != nil:
		// Nothing ran (e.g. the cache file could not be opened).
		fatal(err)
	}
	if errs := p.render(os.Stdout, results); len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "catasweep:", err)
		}
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catasweep:", err)
	os.Exit(1)
}

// cellRef indexes one table cell's run and its FIFO baseline in the
// plan's deduplicated config list.
type cellRef struct{ run, base int }

type planRow struct {
	label string // preformatted row label
	cells []cellRef
}

// plan is a sweep lowered to a flat, deduplicated list of run configs
// plus the table layout that presents them. Baselines shared between
// cells (e.g. the FIFO run all policies in a row normalize against)
// appear once in configs, so the engine never runs a config twice.
type plan struct {
	header  string
	rows    []planRow
	configs []cata.RunConfig
}

// planBuilder deduplicates configs as cells are added. RunConfig is
// comparable (sweep configs carry no writers), so it keys the map
// directly — every field counts, including ones added later.
type planBuilder struct {
	p     *plan
	index map[cata.RunConfig]int
}

func newPlanBuilder() *planBuilder {
	return &planBuilder{p: &plan{}, index: map[cata.RunConfig]int{}}
}

func (b *planBuilder) config(cfg cata.RunConfig) int {
	if i, ok := b.index[cfg]; ok {
		return i
	}
	i := len(b.p.configs)
	b.p.configs = append(b.p.configs, cfg)
	b.index[cfg] = i
	return i
}

// cell registers one policy run plus its FIFO baseline: the same
// configuration with the FIFO policy and the stock transition latency.
func (b *planBuilder) cell(cfg cata.RunConfig) cellRef {
	base := cfg
	base.Policy = cata.PolicyFIFO
	base.TransitionLatency = 0
	return cellRef{run: b.config(cfg), base: b.config(base)}
}

func (b *planBuilder) row(label string, cfgs ...cata.RunConfig) {
	row := planRow{label: label}
	for _, cfg := range cfgs {
		row.cells = append(row.cells, b.cell(cfg))
	}
	b.p.rows = append(b.p.rows, row)
}

// parsePolicies resolves the -policies flag: a named set or a
// comma-separated list of policy specs, each a registered name with
// optional parameters ("CATA", "AMTHA:tiebreak=spread"). The names come
// from the one policy registry behind cata.PolicyDocs. Commas also
// separate a spec's own parameters, so a segment shaped like a bare
// `key=val` continues the preceding spec instead of starting a new one:
// "AMTHA:a=1,b=2,CATA" is AMTHA with two parameters, then CATA.
func parsePolicies(s string) ([]cata.Policy, error) {
	switch s {
	case "":
		return nil, nil
	case "all":
		return append(cata.AllPolicies(), cata.ExtensionPolicies()...), nil
	case "paper":
		return cata.AllPolicies(), nil
	case "extensions":
		return cata.ExtensionPolicies(), nil
	}
	var specs []string
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if len(specs) > 0 && strings.Contains(seg, "=") && !strings.Contains(seg, ":") {
			specs[len(specs)-1] += "," + seg
			continue
		}
		specs = append(specs, seg)
	}
	var ps []cata.Policy
	for _, spec := range specs {
		p, err := cata.ParsePolicy(spec)
		if err != nil {
			return nil, fmt.Errorf("%v (or use all | paper | extensions)", err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// buildPlan lowers one named sweep to its execution plan.
func buildPlan(sweep, workload string, fast int, scale float64, policies []cata.Policy) (*plan, error) {
	b := newPlanBuilder()
	cfg := func(p cata.Policy, fast int, seed uint64, scale float64, lat time.Duration) cata.RunConfig {
		return cata.RunConfig{
			Workload: workload, Policy: p, FastCores: fast,
			Seed: seed, Scale: scale, TransitionLatency: lat,
		}
	}
	switch sweep {
	case "budget":
		b.p.header = fmt.Sprintf("power-budget sweep on %s (speedup over FIFO at equal budget / norm. EDP)\n", workload) +
			fmt.Sprintf("%-8s %18s %18s %18s\n", "fast", "CATA", "CATA+RSU", "TurboMode")
		for _, f := range []int{2, 4, 8, 12, 16, 20, 24, 28, 30} {
			b.row(fmt.Sprintf("%-8d", f),
				cfg(cata.PolicyCATA, f, 0, scale, 0),
				cfg(cata.PolicyCATARSU, f, 0, scale, 0),
				cfg(cata.PolicyTurboMode, f, 0, scale, 0))
		}
	case "latency":
		b.p.header = fmt.Sprintf("DVFS transition-latency sweep on %s at %d fast cores\n", workload, fast) +
			fmt.Sprintf("%-12s %18s %18s\n", "latency", "CATA", "CATA+RSU")
		for _, lat := range []time.Duration{
			1 * time.Microsecond, 5 * time.Microsecond, 25 * time.Microsecond,
			100 * time.Microsecond, 400 * time.Microsecond,
		} {
			b.row(fmt.Sprintf("%-12v", lat),
				cfg(cata.PolicyCATA, fast, 0, scale, lat),
				cfg(cata.PolicyCATARSU, fast, 0, scale, lat))
		}
	case "granularity":
		b.p.header = fmt.Sprintf("granularity sweep on %s at %d fast cores (scale shrinks task count)\n", workload, fast) +
			fmt.Sprintf("%-8s %18s %18s\n", "scale", "CATA", "CATA+RSU")
		for _, sc := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			b.row(fmt.Sprintf("%-8.1f", sc),
				cfg(cata.PolicyCATA, fast, 0, sc, 0),
				cfg(cata.PolicyCATARSU, fast, 0, sc, 0))
		}
	case "seeds":
		b.p.header = fmt.Sprintf("seed sensitivity on %s at %d fast cores\n", workload, fast) +
			fmt.Sprintf("%-8s %18s %18s\n", "seed", "CATA", "CATA+RSU")
		for _, seed := range []uint64{1, 7, 42, 1337, 2024} {
			b.row(fmt.Sprintf("%-8d", seed),
				cfg(cata.PolicyCATA, fast, seed, scale, 0),
				cfg(cata.PolicyCATARSU, fast, seed, scale, 0))
		}
	case "extensions":
		b.p.header = fmt.Sprintf("extension comparison on %s at %d fast cores\n", workload, fast) +
			fmt.Sprintf("%-14s %18s\n", "policy", "speedup / EDP")
		for _, p := range []cata.Policy{cata.PolicyCATARSU, cata.PolicyCATARSUHA, cata.PolicyCATA3L} {
			b.row(fmt.Sprintf("%-14v", p), cfg(p, fast, 0, scale, 0))
		}
	case "policies":
		if len(policies) == 0 {
			policies = append(cata.AllPolicies(), cata.ExtensionPolicies()...)
		}
		b.p.header = fmt.Sprintf("policy comparison on %s at %d fast cores\n", workload, fast) +
			fmt.Sprintf("%-14s %18s\n", "policy", "speedup / EDP")
		for _, p := range policies {
			b.row(fmt.Sprintf("%-14v", p), cfg(p, fast, 0, scale, 0))
		}
	default:
		return nil, fmt.Errorf("unknown sweep %q", sweep)
	}
	return b.p, nil
}

// render prints the sweep table from the batch results, in the same
// layout and cell format as the original sequential implementation.
// Cells whose run or baseline failed render as "err"; the distinct
// failures come back as the error slice.
func (p *plan) render(w io.Writer, results []cata.BatchResult) []error {
	var errs []error
	seen := map[string]bool{}
	fail := func(err error) {
		if !seen[err.Error()] {
			seen[err.Error()] = true
			errs = append(errs, err)
		}
	}
	fmt.Fprint(w, p.header)
	for _, row := range p.rows {
		fmt.Fprint(w, row.label)
		for _, c := range row.cells {
			run, base := results[c.run], results[c.base]
			if run.Err != nil || base.Err != nil {
				if run.Err != nil {
					fail(run.Err)
				}
				if base.Err != nil {
					fail(base.Err)
				}
				fmt.Fprintf(w, "     %6s / %5s", "err", "err")
				continue
			}
			speedup := float64(base.Result.Makespan) / float64(run.Result.Makespan)
			edp := run.Result.EDP / base.Result.EDP
			fmt.Fprintf(w, "     %6.3f / %5.3f", speedup, edp)
		}
		fmt.Fprintln(w)
	}
	return errs
}
