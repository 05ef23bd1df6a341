package policies

import (
	"cata/internal/cpufreq"
	"cata/internal/machine"
	"cata/internal/rsm"
	"cata/internal/rsu"
	"cata/internal/rts"
	"cata/internal/sched"
	"cata/internal/spec"
	"cata/internal/turbo"
	"cata/internal/xrand"
)

// thetaDoc types the CATS bottom-level threshold: the fraction of the
// maximum live bottom level at or above which a task counts as critical
// (sched.BottomLevel.Theta, default 1.0 — the paper's configuration).
var thetaDoc = spec.ParamDoc{
	Key:          "theta",
	Kind:         spec.Float,
	Default:      "1.0",
	Help:         "criticality threshold: fraction of the max live bottom level in (0,1]",
	Min:          0,
	Max:          1,
	MinExclusive: true,
}

// init registers the eight built-in configurations — the six the paper
// evaluates plus the two extensions — with wiring identical to the
// pre-registry policy switch, so their results are bit-for-bit
// unchanged. Bare specs (no parameters) canonicalize to the paper
// labels, keeping golden fixtures and benchmark checksums stable.
func init() {
	builtins := []Entry{
		{
			Name:    "FIFO",
			Summary: "criticality-blind FIFO scheduler on statically fast/slow cores (baseline)",
			Build: func(_ spec.Params, env *Env) error {
				env.Mach.SetHeterogeneous(env.FastCores)
				env.Cfg.NewScheduler = func(info sched.CoreInfo) sched.Scheduler { return sched.NewFIFO(info) }
				return nil
			},
		},
		{
			Name:    "CATS+BL",
			Summary: "criticality-aware scheduling, dynamic bottom-level estimation",
			Params:  []spec.ParamDoc{thetaDoc},
			Build: func(p spec.Params, env *Env) error {
				bl := sched.NewBottomLevel()
				bl.Theta = p.Float("theta", bl.Theta)
				env.Mach.SetHeterogeneous(env.FastCores)
				env.Cfg.Estimator = bl
				env.Cfg.Options.ClassAwareWake = true
				env.Cfg.NewScheduler = func(info sched.CoreInfo) sched.Scheduler { return sched.NewCATS(info) }
				return nil
			},
		},
		{
			Name:    "CATS+SA",
			Summary: "criticality-aware scheduling, static criticality annotations",
			Build: func(_ spec.Params, env *Env) error {
				env.Mach.SetHeterogeneous(env.FastCores)
				env.Cfg.Options.ClassAwareWake = true
				env.Cfg.NewScheduler = func(info sched.CoreInfo) sched.Scheduler { return sched.NewCATS(info) }
				return nil
			},
		},
		{
			Name:    "CATA",
			Summary: "criticality-driven acceleration in software via the cpufreq stack",
			Build: func(_ spec.Params, env *Env) error {
				env.FW = cpufreq.New(env.Eng, env.Mach, cpufreq.DefaultCosts())
				env.RSM = rsm.New(env.Eng, env.Mach, env.FW, env.FastCores)
				env.Cfg.Reconfig = rts.RSMReconfig{RSM: env.RSM}
				env.Cfg.NewScheduler = func(sched.CoreInfo) sched.Scheduler { return sched.NewCritFirst() }
				return nil
			},
		},
		{
			Name:    "CATA+RSU",
			Summary: "CATA with the hardware Runtime Support Unit",
			Build: func(_ spec.Params, env *Env) error {
				env.RSU = rsu.New(env.Eng, env.Mach, []int{0, 1})
				env.RSU.Init(env.FastCores)
				env.Cfg.Reconfig = rts.NewRSUReconfig(env.RSU, env.Mach, env.Cfg.Options.RSUOpCycles)
				env.Cfg.NewScheduler = func(sched.CoreInfo) sched.Scheduler { return sched.NewCritFirst() }
				return nil
			},
		},
		{
			Name:    "TurboMode",
			Summary: "criticality-blind acceleration of random ready cores",
			Build: func(_ spec.Params, env *Env) error {
				env.Turbo = turbo.New(env.Eng, env.Mach, env.FastCores, xrand.New(env.Seed).Stream("turbo"))
				env.Turbo.Start()
				env.Cfg.NewScheduler = func(info sched.CoreInfo) sched.Scheduler { return sched.NewFIFO(info) }
				return nil
			},
		},
		{
			Name:      "CATA+RSU-HA",
			Extension: true,
			Summary:   "CATA+RSU that re-budgets cores halted in kernel IO",
			Build: func(_ spec.Params, env *Env) error {
				env.RSU = rsu.New(env.Eng, env.Mach, []int{0, 1})
				env.RSU.Init(env.FastCores)
				rsu.NewHaltAware(env.RSU, env.Mach)
				env.Cfg.Reconfig = rts.NewRSUReconfig(env.RSU, env.Mach, env.Cfg.Options.RSUOpCycles)
				env.Cfg.NewScheduler = func(sched.CoreInfo) sched.Scheduler { return sched.NewCritFirst() }
				return nil
			},
		},
		{
			Name:      "CATA+RSU-3L",
			Extension: true,
			Summary:   "CATA+RSU with three operating points under a power-unit budget",
			Machine: func(_ spec.Params, cfg *machine.Config) error {
				// The multi-level extension adds an intermediate operating
				// point.
				cfg.Power = rsu.ThreeLevelModel()
				cfg.SlowLevel = 0
				cfg.FastLevel = 2
				return nil
			},
			Build: func(_ spec.Params, env *Env) error {
				// Same power envelope as `FastCores` fast cores: fast costs 2
				// units, so the pool is 2x the fast-core budget.
				env.RSU = rsu.New(env.Eng, env.Mach, rsu.ThreeLevelUnitCosts())
				env.RSU.Init(2 * env.FastCores)
				env.Cfg.Reconfig = rts.NewRSUReconfig(env.RSU, env.Mach, env.Cfg.Options.RSUOpCycles)
				env.Cfg.NewScheduler = func(sched.CoreInfo) sched.Scheduler { return sched.NewCritFirst() }
				return nil
			},
		},
	}
	for i, e := range builtins {
		builtinOrder[e.Name] = i
		Register(e)
	}
}
