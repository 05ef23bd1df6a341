package machine

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/probe"
	"cata/internal/sim"
	"cata/internal/stats"
)

// DVFSController models the per-core voltage/frequency controller the
// paper adds to gem5 [31]. A request sets a core's *target* level; after
// Config.TransitionLatency the core's *actual* level switches. Requests
// arriving mid-transition latch the newest target; when the in-flight
// transition lands, a follow-up transition starts if target and actual
// still disagree. Requests for the current target coalesce to nothing,
// which naturally absorbs accelerate/decelerate churn within one latency
// window.
//
// Budget accounting throughout the reproduction (RSM, RSU, TurboMode) is
// in terms of *committed targets*: the reconfiguration algorithms never
// commit more fast targets than the power budget (asserted in tests). The
// physically-fast count can transiently exceed the committed count during
// a swap, exactly the transient §III-A says serialization must bound.
type DVFSController struct {
	eng   *sim.Engine
	cfg   *Config
	cores []dvfsCore

	// onActual is invoked after a core's physical level changes.
	onActual func(core int, level energy.Level)

	// rec, when non-nil, receives requested/actual transition events.
	rec probe.Recorder

	// Stats.
	transitions   int64
	requests      int64
	coalesced     int64
	settleLatency stats.DurationSummary
}

// dvfsCore is one core's controller state. At most one transition is in
// flight per core; its completion event targets the dvfsCore itself,
// so transitions schedule without allocating.
type dvfsCore struct {
	d  *DVFSController
	id int

	actual       energy.Level
	target       energy.Level
	inFlight     bool
	inFlightTo   energy.Level
	requestedAt  sim.Time // when the currently unsatisfied target was requested
	maxFastEpoch int64
}

// NewDVFSController creates a controller with every core at cfg.SlowLevel.
func NewDVFSController(eng *sim.Engine, cfg *Config) *DVFSController {
	d := &DVFSController{eng: eng, cfg: cfg}
	d.cores = make([]dvfsCore, cfg.Cores)
	for i := range d.cores {
		d.cores[i] = dvfsCore{d: d, id: i, actual: cfg.SlowLevel, target: cfg.SlowLevel}
	}
	return d
}

// OnActualChange registers the callback invoked whenever a core's physical
// level changes. Only one listener is supported (the Machine).
func (d *DVFSController) OnActualChange(fn func(core int, level energy.Level)) {
	d.onActual = fn
}

// SetRecorder attaches a flight recorder. Committed target requests and
// physical level changes are reported; coalesced no-op requests are not.
func (d *DVFSController) SetRecorder(rec probe.Recorder) { d.rec = rec }

// Actual returns the core's current physical operating level.
func (d *DVFSController) Actual(core int) energy.Level { return d.cores[core].actual }

// Target returns the core's committed target level.
func (d *DVFSController) Target(core int) energy.Level { return d.cores[core].target }

// Freq returns the core's current physical frequency.
func (d *DVFSController) Freq(core int) sim.Hertz {
	return d.cfg.Power.Point(d.cores[core].actual).Freq
}

// SetInitial forces a core's actual and target level with no transition.
// It is only legal before the simulation starts (time zero); the CATS and
// FIFO experiments use it to build the static heterogeneous machine.
func (d *DVFSController) SetInitial(core int, level energy.Level) {
	if d.eng.Now() != 0 {
		panic("machine: SetInitial after simulation start")
	}
	c := &d.cores[core]
	c.actual = level
	c.target = level
	c.inFlight = false
	if d.onActual != nil {
		d.onActual(core, level)
	}
	if d.rec != nil {
		d.rec.FreqActual(d.eng.Now(), core, int(level), d.cfg.Power.Point(level).Freq, 0)
	}
}

// Request asks for core to move to level. It returns immediately; the
// physical change lands TransitionLatency later (or later still if a
// transition is already in flight).
func (d *DVFSController) Request(core int, level energy.Level) {
	if int(level) < 0 || int(level) >= d.cfg.Power.Levels() {
		panic(fmt.Sprintf("machine: DVFS request for unknown level %d", level))
	}
	d.requests++
	c := &d.cores[core]
	if c.target == level {
		d.coalesced++
		return
	}
	c.target = level
	c.requestedAt = d.eng.Now()
	if d.rec != nil {
		d.rec.FreqRequest(c.requestedAt, core, int(level))
	}
	if !c.inFlight {
		c.begin()
	}
	// If a transition is in flight the new target is latched; completion
	// logic will chain the follow-up transition.
}

// begin starts the transition to the current target. Starting one
// while another is in flight on the core panics: Request latches
// mid-transition targets instead.
func (c *dvfsCore) begin() {
	if c.inFlight {
		panic(fmt.Sprintf("machine: DVFS transition on core %d while another is in flight", c.id))
	}
	c.inFlight = true
	c.inFlightTo = c.target
	c.d.transitions++
	c.d.eng.After(c.d.cfg.TransitionLatency, sim.Event{T: c})
}

// Fire implements sim.Target: the in-flight transition lands. It is the
// controller's only event.
func (c *dvfsCore) Fire(uint8) {
	d, core := c.d, c.id
	c.inFlight = false
	changed := c.actual != c.inFlightTo
	c.actual = c.inFlightTo
	var settle sim.Time
	if c.actual == c.target {
		settle = d.eng.Now() - c.requestedAt
		d.settleLatency.ObserveTime(settle)
	}
	if changed && d.onActual != nil {
		d.onActual(core, c.actual)
	}
	if changed && d.rec != nil {
		d.rec.FreqActual(d.eng.Now(), core, int(c.actual), d.cfg.Power.Point(c.actual).Freq, settle)
	}
	if c.target != c.actual {
		c.begin() // target moved while we were transitioning
	}
}

// CommittedFast returns the number of cores whose committed target is the
// fast level. This is the quantity the reconfiguration algorithms budget.
func (d *DVFSController) CommittedFast() int {
	n := 0
	for i := range d.cores {
		if d.cores[i].target == d.cfg.FastLevel {
			n++
		}
	}
	return n
}

// PhysicalFast returns the number of cores physically at the fast level.
func (d *DVFSController) PhysicalFast() int {
	n := 0
	for i := range d.cores {
		if d.cores[i].actual == d.cfg.FastLevel {
			n++
		}
	}
	return n
}

// Transitions returns the number of physical transitions started.
func (d *DVFSController) Transitions() int64 { return d.transitions }

// Requests returns total requests and how many were coalesced no-ops.
func (d *DVFSController) Requests() (total, coalesced int64) {
	return d.requests, d.coalesced
}

// SettleLatency summarizes request-to-physical-effect latencies.
func (d *DVFSController) SettleLatency() *stats.DurationSummary { return &d.settleLatency }
