// Package opensys is the open-system traffic layer: seeded arrival
// processes that instantiate workload DAGs as jobs arriving over
// simulated time, and the response-time collector that turns job
// completions into latency distributions (p50/p99/p999), deadline-miss
// accounting and shed counts. The closed-system harness asks "how fast
// does one program run"; this package asks the service question the
// ROADMAP's north star needs — what tail latency does a stream of jobs
// see on a shared machine under each policy.
//
// An arrival process is written in the shared spec grammar
// (internal/spec), like workloads and policies:
//
//	poisson:lambda=2000                 Poisson arrivals, λ jobs/second
//	fixed:interval=500us                fixed interarrival gap
//
// with the common parameters jobs=N (arrival count, default 16),
// deadline=D (per-job response-time SLO, e.g. 5ms; 0 disables),
// cap=N (max jobs in system; arrivals beyond it are shed; 0 means
// unlimited) and window=D (report per-window percentiles at this
// granularity; 0 disables). Durations use Go duration syntax.
// All randomness flows from internal/xrand streams, so a (spec, seed)
// pair always yields the identical arrival schedule.
package opensys

import (
	"fmt"
	"strings"
	"time"

	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/xrand"
)

// Arrival process kinds.
const (
	// KindPoisson draws exponentially distributed interarrival gaps.
	KindPoisson = "poisson"
	// KindFixed spaces arrivals by a constant interval.
	KindFixed = "fixed"
)

// Process is a parsed arrival-process spec.
type Process struct {
	// Kind is KindPoisson or KindFixed.
	Kind string
	// Lambda is the Poisson arrival rate in jobs per second (> 0 for
	// KindPoisson, unused otherwise).
	Lambda float64
	// Interval is the fixed interarrival gap (> 0 for KindFixed).
	Interval sim.Time
	// Jobs is the number of arrivals to generate.
	Jobs int
	// Deadline is the per-job response-time SLO; 0 disables deadline
	// accounting. Missing the deadline never aborts a job — it is an
	// observation, not an enforcement.
	Deadline sim.Time
	// Cap bounds concurrently in-system jobs; arrivals finding the
	// system full are shed. 0 means unlimited.
	Cap int
	// Window, when > 0, buckets completions into fixed windows of this
	// width and reports per-window percentiles.
	Window sim.Time
}

// maxSeconds bounds duration parameters so they stay representable in
// picosecond sim.Time.
const maxSeconds = 1e6

// commonParams apply to both arrival processes.
var commonParams = []spec.ParamDoc{
	{Key: "jobs", Kind: spec.Int, Default: "16", Help: "number of arrivals", Min: 1},
	{Key: "deadline", Kind: spec.Duration, Default: "0 (off)", Help: "per-job response-time SLO", Max: maxSeconds},
	{Key: "cap", Kind: spec.Int, Default: "0 (unlimited)", Help: "max jobs in system; arrivals beyond it are shed"},
	{Key: "window", Kind: spec.Duration, Default: "0 (off)", Help: "per-window percentile granularity", Max: maxSeconds},
}

var registry = spec.NewRegistry[string]("arrivals")

func init() {
	registry.Register(KindPoisson, append([]spec.ParamDoc{
		{Key: "lambda", Kind: spec.Float, Default: "(required)", Help: "arrival rate in jobs/second", MinExclusive: true},
	}, commonParams...), KindPoisson)
	registry.Register(KindFixed, append([]spec.ParamDoc{
		{Key: "interval", Kind: spec.Duration, Default: "(required)", Help: "interarrival gap", Max: maxSeconds, MinExclusive: true},
	}, commonParams...), KindFixed)
}

// Parse parses an arrival-process spec string. Parameter kinds and
// bounds are checked by the spec registry; Validate adds the rules that
// span parameters.
func Parse(s string) (Process, error) {
	kind, sp, err := registry.Resolve(s)
	if err != nil {
		return Process{}, err
	}
	p := sp.Params
	proc := Process{
		Kind:     kind,
		Lambda:   p.Float("lambda", 0),
		Interval: simTime(p.Duration("interval", 0)),
		Jobs:     p.Int("jobs", 16),
		Deadline: simTime(p.Duration("deadline", 0)),
		Cap:      p.Int("cap", 0),
		Window:   simTime(p.Duration("window", 0)),
	}
	if err := proc.Validate(); err != nil {
		return Process{}, err
	}
	return proc, nil
}

// Canonicalize resolves an arrival-process spec and returns its
// canonical form: the kind, then the parameters as written in sorted
// key order.
func Canonicalize(s string) (string, error) { return registry.Canonicalize(s) }

// simTime converts a wall-clock duration to simulated time.
func simTime(d time.Duration) sim.Time {
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond
}

// Validate reports structural errors in the process.
func (p Process) Validate() error {
	switch p.Kind {
	case KindPoisson:
		if p.Lambda <= 0 {
			return fmt.Errorf("opensys: poisson arrivals need lambda > 0 (jobs/second)")
		}
	case KindFixed:
		if p.Interval <= 0 {
			return fmt.Errorf("opensys: fixed arrivals need interval > 0")
		}
	default:
		return fmt.Errorf("opensys: unknown arrival process kind %q", p.Kind)
	}
	if p.Jobs < 1 {
		return fmt.Errorf("opensys: jobs must be >= 1, got %d", p.Jobs)
	}
	if p.Deadline < 0 || p.Window < 0 || p.Cap < 0 {
		return fmt.Errorf("opensys: negative parameter in %+v", p)
	}
	return nil
}

// String renders the process in canonical spec form: kind, then the
// non-default parameters in fixed order. Parse(p.String()) reproduces p.
func (p Process) String() string {
	var parts []string
	switch p.Kind {
	case KindPoisson:
		parts = append(parts, fmt.Sprintf("lambda=%g", p.Lambda))
	case KindFixed:
		parts = append(parts, fmt.Sprintf("interval=%s", durationSpec(p.Interval)))
	}
	parts = append(parts, fmt.Sprintf("jobs=%d", p.Jobs))
	if p.Deadline > 0 {
		parts = append(parts, fmt.Sprintf("deadline=%s", durationSpec(p.Deadline)))
	}
	if p.Cap > 0 {
		parts = append(parts, fmt.Sprintf("cap=%d", p.Cap))
	}
	if p.Window > 0 {
		parts = append(parts, fmt.Sprintf("window=%s", durationSpec(p.Window)))
	}
	return p.Kind + ":" + strings.Join(parts, ",")
}

// durationSpec renders t as a Go duration string parseable by Parse.
func durationSpec(t sim.Time) string {
	return time.Duration(int64(t) / int64(sim.Nanosecond)).String()
}

// Schedule derives the deterministic arrival schedule for the process:
// Jobs absolute arrival times in nondecreasing order. The same (p, seed)
// pair always returns the identical slice; the stream is independent of
// every other consumer of the seed.
func (p Process) Schedule(seed uint64) []sim.Time {
	times := make([]sim.Time, p.Jobs)
	switch p.Kind {
	case KindFixed:
		for i := range times {
			times[i] = sim.Time(i) * p.Interval
		}
	case KindPoisson:
		rng := xrand.New(seed).Stream("opensys.arrivals")
		meanGapPs := float64(sim.Second) / p.Lambda
		var at sim.Time
		for i := range times {
			at += sim.Time(rng.Exp(meanGapPs))
			times[i] = at
		}
	}
	return times
}

// JobSeed derives the workload seed for one job of the stream: every
// job gets an independent sub-stream of the run seed, so per-job DAG
// instances differ while the whole stream stays reproducible.
// The sub-stream is the one named "opensys.job.<job>", derived without
// allocating.
func JobSeed(seed uint64, job int) uint64 {
	var s xrand.Source
	s.SeedStreamIndexed(seed, "opensys.job.", job)
	return s.Uint64()
}
