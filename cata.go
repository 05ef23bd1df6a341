package cata

import (
	"io"
	"time"

	"cata/internal/exp"
	"cata/internal/opensys"
	"cata/internal/sim"
	"cata/internal/spec"
	"cata/internal/workloads"
)

// Policy selects a system configuration by its policy spec: the name of
// a registered policy, optionally followed by typed parameters —
// "CATA+RSU", "CATS+BL:theta=0.8", "AMTHA:tiebreak=spread". The
// constants below name the built-in configurations; anything in
// PolicyDocs — including policies registered after this module was
// written — is an equally valid value. Use ParsePolicy to validate and
// canonicalize user input; the zero value means PolicyFIFO.
type Policy string

// The paper's six evaluated configurations (§V), the two built-in
// extensions, and the first externally registered policy.
const (
	// PolicyFIFO: baseline FIFO scheduler on a statically heterogeneous
	// machine; criticality-blind (§II-C).
	PolicyFIFO Policy = "FIFO"
	// PolicyCATSBL: criticality-aware task scheduling with dynamic
	// bottom-level criticality estimation (§II-B, [24]). Accepts a
	// `theta` parameter: the criticality threshold in (0,1].
	PolicyCATSBL Policy = "CATS+BL"
	// PolicyCATSSA: criticality-aware task scheduling with static
	// criticality annotations (the paper's criticality(c) clause).
	PolicyCATSSA Policy = "CATS+SA"
	// PolicyCATA: criticality-aware task acceleration in software —
	// runtime-driven DVFS through the cpufreq stack (§III-A).
	PolicyCATA Policy = "CATA"
	// PolicyCATARSU: CATA with the hardware Runtime Support Unit (§III-B).
	PolicyCATARSU Policy = "CATA+RSU"
	// PolicyTurboMode: the criticality-blind TurboMode comparator (§V-D).
	PolicyTurboMode Policy = "TurboMode"
	// PolicyCATARSUHA: extension beyond the paper — CATA+RSU that
	// releases the budget of IO-halted cores and restores it on wake,
	// adopting the one TurboMode behavior §V-D concedes is superior.
	PolicyCATARSUHA Policy = "CATA+RSU-HA"
	// PolicyCATA3L: extension beyond the paper — three acceleration
	// levels (1/1.5/2 GHz) under a power-unit budget, the multi-level
	// generalization §III leaves as future work.
	PolicyCATA3L Policy = "CATA+RSU-3L"
	// PolicyAMTHA: registered extension — De Giusti et al.'s static
	// task-to-core mapping by accumulated-time list scheduling, the
	// static contrast point to CATA's dynamic acceleration. Accepts a
	// `tiebreak` parameter: index, spread or accum.
	PolicyAMTHA Policy = "AMTHA"
)

// AllPolicies returns every paper-evaluated policy in evaluation order
// (the extensions are listed by ExtensionPolicies).
func AllPolicies() []Policy { return fromInternalAll(exp.AllPolicies()) }

// ExtensionPolicies returns the beyond-the-paper configurations.
func ExtensionPolicies() []Policy { return fromInternalAll(exp.ExtensionPolicies()) }

func fromInternalAll(ips []exp.Policy) []Policy {
	ps := make([]Policy, len(ips))
	for i, ip := range ips {
		ps[i] = fromInternal(ip)
	}
	return ps
}

// Param documents one typed spec parameter of a registered policy or
// workload, as accepted in a spec's `key=val` list and validated before
// a run is admitted.
type Param struct {
	// Key is the parameter name as written in a spec.
	Key string `json:"key"`
	// Kind is the declared value type: "string", "int", "uint",
	// "float", "enum" or "duration".
	Kind string `json:"kind"`
	// Default describes the value used when the key is absent.
	Default string `json:"default"`
	// Help is a one-line description.
	Help string `json:"help"`
	// Choices lists the accepted values of an enum parameter.
	Choices []string `json:"choices,omitempty"`
}

// toParams converts registry parameter docs to the public form.
func toParams(docs []spec.ParamDoc) []Param {
	if len(docs) == 0 {
		return nil
	}
	ps := make([]Param, len(docs))
	for i, d := range docs {
		ps[i] = Param{
			Key:     d.Key,
			Kind:    d.Kind.String(),
			Default: d.Default,
			Help:    d.Help,
			Choices: append([]string(nil), d.Choices...),
		}
	}
	return ps
}

// PolicyInfo documents one registered policy: its label, a one-line
// summary, its typed parameters, and whether it goes beyond the paper.
// The list returned by PolicyDocs is the single source of truth behind
// every policy list in this module — CLI help strings and the README
// table derive from it.
type PolicyInfo struct {
	// Policy is the bare spec value.
	Policy Policy `json:"policy"`
	// Label is the policy's name, as parsed by ParsePolicy.
	Label string `json:"label"`
	// Extension marks beyond-the-paper configurations.
	Extension bool `json:"extension,omitempty"`
	// Summary is a one-line description.
	Summary string `json:"summary"`
	// Params documents the spec parameters the policy accepts.
	Params []Param `json:"params,omitempty"`
}

// PolicyDocs returns documentation for every registered policy: the
// paper's six in evaluation order, then the built-in extensions, then
// external registrations like AMTHA.
func PolicyDocs() []PolicyInfo {
	ds := exp.PolicyDocs()
	infos := make([]PolicyInfo, len(ds))
	for i, d := range ds {
		infos[i] = PolicyInfo{
			Policy:    fromInternal(d.Policy),
			Label:     d.Label,
			Extension: d.Extension,
			Summary:   d.Summary,
			Params:    toParams(d.Params),
		}
	}
	return infos
}

// PolicyLabels returns the names of every registered policy, the
// accepted bare inputs of ParsePolicy. CLI -policy help strings are
// built from it.
func PolicyLabels() []string {
	ds := exp.PolicyDocs()
	labels := make([]string, len(ds))
	for i, d := range ds {
		labels[i] = d.Label
	}
	return labels
}

// Fig4Policies returns the software-only configurations of Figure 4.
func Fig4Policies() []Policy {
	return []Policy{PolicyFIFO, PolicyCATSBL, PolicyCATSSA, PolicyCATA}
}

// Fig5Policies returns the configurations of Figure 5.
func Fig5Policies() []Policy {
	return []Policy{PolicyCATA, PolicyCATARSU, PolicyTurboMode}
}

// String returns the policy's canonical spec (for the built-in
// configurations, the paper's label).
func (p Policy) String() string { return p.internal().String() }

// MarshalJSON encodes the policy as its canonical spec string (e.g.
// "CATA+RSU"), the same representation the result cache and the catad
// wire format use, so JSON stays readable and stable.
func (p Policy) MarshalJSON() ([]byte, error) {
	return p.internal().MarshalJSON()
}

// UnmarshalJSON decodes and validates a policy spec, as accepted by
// ParsePolicy.
func (p *Policy) UnmarshalJSON(b []byte) error {
	var ip exp.Policy
	if err := ip.UnmarshalJSON(b); err != nil {
		return err
	}
	*p = fromInternal(ip)
	return nil
}

// ParsePolicy resolves a policy spec — a registered name, matched
// case-insensitively, with optional typed parameters ("FIFO",
// "cata+rsu", "CATS+BL:theta=0.8", "AMTHA:tiebreak=spread") — against
// the policy registry, validating every parameter key, type and bound.
// The returned Policy is canonical: case and parameter order are
// normalized so equal configurations compare (and cache) equal.
func ParsePolicy(s string) (Policy, error) {
	ip, err := exp.ParsePolicy(s)
	if err != nil {
		return "", err
	}
	return fromInternal(ip), nil
}

// ValidatePolicy reports whether a policy spec resolves against the
// registry, without running anything. Services use it to reject bad
// specs at admission time; the error names the offending parameter.
func ValidatePolicy(s string) error {
	_, err := exp.ParsePolicy(s)
	return err
}

func (p Policy) internal() exp.Policy  { return exp.Policy(p) }
func fromInternal(p exp.Policy) Policy { return Policy(p) }

// RunConfig describes one simulation. The JSON form (snake_case keys,
// policies as paper labels, durations in nanoseconds) is the request
// body of catad's POST /v1/runs; the in-memory-only fields — Program
// and the output writers — are excluded from it.
type RunConfig struct {
	// Workload is a workload spec: the name of a registered workload,
	// optionally followed by parameters — "dedup",
	// "layered:seed=7,width=16,depth=32", "trace:file=capture.json".
	// See Workloads for the registry and each entry's parameters.
	// Ignored when Program is set.
	Workload string `json:"workload,omitempty"`
	// Program, when non-nil, runs a custom task graph built with
	// NewProgram.
	Program *Program `json:"-"`
	// Policy is the system configuration (default PolicyFIFO).
	Policy Policy `json:"policy"`
	// FastCores is the power budget: statically fast cores for FIFO/CATS,
	// maximum simultaneously accelerated cores for CATA/RSU/TurboMode.
	// The paper sweeps 8, 16 and 24 out of 32.
	FastCores int `json:"fast_cores,omitempty"`
	// Cores is the machine size (default 32, Table I).
	Cores int `json:"cores,omitempty"`
	// Seed drives workload randomness (default 42).
	Seed uint64 `json:"seed,omitempty"`
	// Scale in (0, 1] shrinks workload task counts (default 1.0).
	Scale float64 `json:"scale,omitempty"`
	// TransitionLatency overrides the DVFS transition latency (zero keeps
	// the Table I value of 25 µs). Used by the latency ablation.
	TransitionLatency time.Duration `json:"transition_latency_ns,omitempty"`
	// Arrivals, when non-empty, switches the run to open-system traffic
	// mode: the workload becomes a per-job DAG template and jobs arrive
	// over simulated time under the given arrival process —
	// "poisson:lambda=2000,jobs=40,deadline=5ms" or
	// "fixed:interval=500us,jobs=40". Parameters: lambda (jobs/second,
	// Poisson) or interval (fixed gap), jobs (arrival count), deadline
	// (per-job response-time SLO), cap (max in-system jobs; arrivals
	// beyond it are shed) and window (per-window percentile reporting).
	// The Result then carries Open. See ValidateArrivals.
	Arrivals string `json:"arrivals,omitempty"`
	// Trace asks the service to record the run's full flight recording —
	// task spans, per-core frequency and power-vs-budget counter tracks,
	// reconfiguration instants, dependence flow arrows — and retain it
	// with the job. Fetch it with ServiceClient.Trace or
	// GET /v1/jobs/{id}/trace; it loads in Perfetto or chrome://tracing.
	// Ignored for local Run calls: use TraceTo there.
	Trace bool `json:"trace,omitempty"`
	// TraceTo, when non-nil, receives the same flight recording as a
	// Chrome trace JSON document (open in chrome://tracing or Perfetto).
	TraceTo io.Writer `json:"-"`
	// TimelineTo, when non-nil, receives a per-core ASCII Gantt chart of
	// the run ('#' critical tasks, '=' non-critical, '.' idle).
	TimelineTo io.Writer `json:"-"`
	// TimelineWidth is the ASCII chart width in columns (default 100).
	TimelineWidth int `json:"timeline_width,omitempty"`
}

// Result is the outcome of one simulation. The JSON form (snake_case
// keys, durations in nanoseconds) is what catad returns in job results.
type Result struct {
	// Makespan is the execution time of the parallel section.
	Makespan time.Duration `json:"makespan_ns"`
	// Joules is total chip energy.
	Joules float64 `json:"joules"`
	// EDP is the energy-delay product in joule-seconds.
	EDP float64 `json:"edp"`
	// TasksRun is the number of tasks executed.
	TasksRun int64 `json:"tasks_run"`
	// CriticalTasks is the number of tasks estimated critical.
	CriticalTasks int64 `json:"critical_tasks"`
	// ReconfigOps counts RSM/RSU reconfiguration operations (CATA paths).
	ReconfigOps int64 `json:"reconfig_ops,omitempty"`
	// ReconfigLatencyAvg and ReconfigLatencyMax describe software
	// reconfiguration latency (CATA only; §V-C).
	ReconfigLatencyAvg time.Duration `json:"reconfig_latency_avg_ns,omitempty"`
	// ReconfigLatencyMax is the worst software reconfiguration latency.
	ReconfigLatencyMax time.Duration `json:"reconfig_latency_max_ns,omitempty"`
	// MaxLockWait is the worst lock acquisition observed across the
	// runtime and kernel reconfiguration locks (CATA only).
	MaxLockWait time.Duration `json:"max_lock_wait_ns,omitempty"`
	// ReconfigOverheadPct is reconfiguration core-time as a percentage of
	// total core-time (CATA only).
	ReconfigOverheadPct float64 `json:"reconfig_overhead_pct,omitempty"`
	// Transitions counts physical DVFS transitions.
	Transitions int64 `json:"transitions,omitempty"`
	// Inversions counts critical tasks dispatched to slow cores.
	Inversions int64 `json:"inversions,omitempty"`
	// StaticBindingEvents counts times a fast core went idle while a
	// critical task ran on a slow core (the second §II-C misbehavior).
	StaticBindingEvents int64 `json:"static_binding_events,omitempty"`
	// AvgUtilization is mean core busy-time over the makespan, in [0,1].
	AvgUtilization float64 `json:"avg_utilization,omitempty"`
	// Open carries the open-system traffic report; nil for closed runs
	// (no RunConfig.Arrivals).
	Open *OpenResult `json:"open,omitempty"`
}

// OpenResult is the open-system traffic summary of a run with
// RunConfig.Arrivals set: response-time percentiles over all completed
// jobs, deadline and shed accounting, and the tail energy-delay
// product. Durations are reported in nanoseconds on the wire.
type OpenResult struct {
	// Process echoes the arrival spec in canonical form.
	Process string `json:"process"`
	// JobsArrived counts arrivals (admitted + shed).
	JobsArrived int64 `json:"jobs_arrived"`
	// JobsCompleted counts jobs that ran to completion.
	JobsCompleted int64 `json:"jobs_completed"`
	// JobsShed counts arrivals dropped by the in-system cap.
	JobsShed int64 `json:"jobs_shed,omitempty"`
	// DeadlineMissed counts jobs completing past their deadline.
	DeadlineMissed int64 `json:"deadline_missed,omitempty"`
	// MissRate is DeadlineMissed / JobsCompleted, in [0,1].
	MissRate float64 `json:"miss_rate,omitempty"`
	// PeakInSystem is the largest number of concurrently in-system jobs.
	PeakInSystem int `json:"peak_in_system"`
	// MeanResponse is the mean job response time.
	MeanResponse time.Duration `json:"mean_response_ns"`
	// P50 is the median job response time.
	P50 time.Duration `json:"p50_response_ns"`
	// P99 is the 99th-percentile job response time.
	P99 time.Duration `json:"p99_response_ns"`
	// P999 is the 99.9th-percentile job response time.
	P999 time.Duration `json:"p999_response_ns"`
	// MaxResponse is the worst job response time.
	MaxResponse time.Duration `json:"max_response_ns"`
	// TailEDP is total joules times the p99 response time in seconds.
	TailEDP float64 `json:"tail_edp,omitempty"`
	// Windows are per-completion-window distributions (with window=).
	Windows []OpenWindow `json:"windows,omitempty"`
}

// OpenWindow is one completion window's response-time distribution.
type OpenWindow struct {
	// Start is the window's inclusive lower bound in simulated time.
	Start time.Duration `json:"start_ns"`
	// End is the window's exclusive upper bound.
	End time.Duration `json:"end_ns"`
	// Completed counts jobs completing inside the window.
	Completed int64 `json:"completed"`
	// P50 is the window's median response time.
	P50 time.Duration `json:"p50_response_ns"`
	// P99 is the window's 99th-percentile response time.
	P99 time.Duration `json:"p99_response_ns"`
	// P999 is the window's 99.9th-percentile response time.
	P999 time.Duration `json:"p999_response_ns"`
}

// ValidateArrivals checks a RunConfig.Arrivals spec string without
// running anything, so services can reject malformed specs at admission.
func ValidateArrivals(spec string) error { return exp.ValidateArrivals(spec) }

func toDuration(t sim.Time) time.Duration {
	return time.Duration(int64(t) / int64(sim.Nanosecond))
}

func toResult(m exp.Measurement) Result {
	lockMax := m.LockWaitMax
	if m.DriverLockWaitMax > lockMax {
		lockMax = m.DriverLockWaitMax
	}
	return Result{
		Makespan:            toDuration(m.Makespan),
		Joules:              m.Joules,
		EDP:                 m.EDP,
		TasksRun:            m.TasksRun,
		CriticalTasks:       m.CriticalTasks,
		ReconfigOps:         m.ReconfigOps,
		ReconfigLatencyAvg:  toDuration(m.ReconfigLatencyAvg),
		ReconfigLatencyMax:  toDuration(m.ReconfigLatencyMax),
		MaxLockWait:         toDuration(lockMax),
		ReconfigOverheadPct: m.ReconfigOverheadPct,
		Transitions:         m.Transitions,
		Inversions:          m.Inversions,
		StaticBindingEvents: m.StaticBinding,
		AvgUtilization:      m.AvgUtilization,
		Open:                toOpenResult(m.Open),
	}
}

// toOpenResult lowers the harness's open-system report to the public
// type, converting simulated times to durations; nil in, nil out.
func toOpenResult(rep *opensys.Report) *OpenResult {
	if rep == nil {
		return nil
	}
	out := &OpenResult{
		Process:        rep.Process,
		JobsArrived:    rep.JobsArrived,
		JobsCompleted:  rep.JobsCompleted,
		JobsShed:       rep.JobsShed,
		DeadlineMissed: rep.DeadlineMissed,
		MissRate:       rep.MissRate,
		PeakInSystem:   rep.PeakInSystem,
		MeanResponse:   toDuration(rep.MeanResponse),
		P50:            toDuration(rep.P50),
		P99:            toDuration(rep.P99),
		P999:           toDuration(rep.P999),
		MaxResponse:    toDuration(rep.MaxResponse),
		TailEDP:        rep.TailEDP,
	}
	for _, w := range rep.Windows {
		out.Windows = append(out.Windows, OpenWindow{
			Start:     toDuration(w.Start),
			End:       toDuration(w.End),
			Completed: w.Completed,
			P50:       toDuration(w.P50),
			P99:       toDuration(w.P99),
			P999:      toDuration(w.P999),
		})
	}
	return out
}

// spec lowers the public config to the experiment harness's RunSpec.
func (cfg RunConfig) spec() (exp.RunSpec, error) {
	spec := exp.RunSpec{
		Workload:          cfg.Workload,
		Policy:            cfg.Policy.internal(),
		FastCores:         cfg.FastCores,
		Cores:             cfg.Cores,
		Seed:              cfg.Seed,
		Scale:             cfg.Scale,
		TransitionLatency: sim.Time(cfg.TransitionLatency.Nanoseconds()) * sim.Nanosecond,
		Trace:             cfg.TraceTo,
		Timeline:          cfg.TimelineTo,
		TimelineWidth:     cfg.TimelineWidth,
		Arrivals:          cfg.Arrivals,
	}
	if cfg.Program != nil {
		if err := cfg.Program.Err(); err != nil {
			return exp.RunSpec{}, err
		}
		spec.Program = cfg.Program.build()
	}
	return spec, nil
}

// Run executes one simulation.
func Run(cfg RunConfig) (Result, error) {
	spec, err := cfg.spec()
	if err != nil {
		return Result{}, err
	}
	m, err := exp.Run(spec)
	if err != nil {
		return Result{}, err
	}
	return toResult(m), nil
}

// WorkloadInfo describes a registered workload.
type WorkloadInfo struct {
	// Name is the spec name.
	Name string `json:"name"`
	// Description is a one-line summary of the workload's structure.
	Description string `json:"description"`
	// Tasks is the task count at full scale with default parameters and
	// seed 42; zero for file-backed workloads, which cannot be built
	// without a file parameter.
	Tasks int `json:"tasks,omitempty"`
	// Params documents the entry's parameters (beyond the reserved
	// seed and scale, which every workload accepts).
	Params []Param `json:"params,omitempty"`
	// FileBacked marks workloads that load their task graph from an
	// external file and therefore require a file=PATH parameter.
	FileBacked bool `json:"file_backed,omitempty"`
}

// Workloads lists the workload registry: the six PARSECSs-like paper
// benchmarks in the paper's order, then the synthetic DAG generators and
// the trace importers.
func Workloads() []WorkloadInfo {
	es := workloads.List()
	infos := make([]WorkloadInfo, len(es))
	for i, e := range es {
		info := WorkloadInfo{
			Name:        e.Name,
			Description: e.Description,
			Params:      toParams(e.Params),
			FileBacked:  e.FileBacked,
		}
		if !e.FileBacked {
			if prog, err := workloads.Build(e.Name, 42, 1.0); err == nil {
				info.Tasks = prog.Tasks()
			}
		}
		infos[i] = info
	}
	return infos
}
