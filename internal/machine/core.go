package machine

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/sim"
)

// CoreState is the coarse execution state of a core, as seen by the
// runtime system.
type CoreState int

const (
	// Busy: executing a compute/wait segment (C0 active).
	Busy CoreState = iota
	// IdleSpin: in the runtime idle loop polling for work (C0 idle).
	IdleSpin
	// Halted: executed `halt`, waiting for a wake (C1).
	Halted
	// Sleeping: demoted to deep sleep after a long halt (C3).
	Sleeping
	// Waking: wake latency in progress.
	Waking
)

// String returns the state name.
func (s CoreState) String() string {
	switch s {
	case Busy:
		return "busy"
	case IdleSpin:
		return "idle"
	case Halted:
		return "halted"
	case Sleeping:
		return "sleeping"
	case Waking:
		return "waking"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// Core models one processor core. The runtime drives it through Exec
// (frequency-scaled work plus frequency-invariant time), Idle (enter the
// idle loop), Wake, and HaltFor (blocking kernel services / IO). The core
// reports every power-relevant change to the energy meter and transparently
// rescales in-flight work when the DVFS controller changes its frequency.
type Core struct {
	id    int
	m     *Machine // for its halt/wake listeners (TurboMode)
	eng   *sim.Engine
	cfg   *Config
	dvfs  *DVFSController
	meter *energy.Meter

	state     CoreState
	seg       segment // the (single) in-flight Exec segment
	segActive bool

	idleTimer sim.Handle // pending spin→halt or halt→sleep demotion
	// done is the continuation of the in-flight Exec, Wake or HaltFor.
	// The three exclude each other, so a core has at most one pending.
	done sim.Event

	// Statistics.
	haltCount    int64
	execSegments int64
	busyTime     sim.Time
	lastBusyIn   sim.Time
}

type segment struct {
	cycles   int64    // remaining frequency-scaled cycles
	fixed    sim.Time // remaining frequency-invariant time
	started  sim.Time
	duration sim.Time // duration of the remaining work at segment start freq
	end      sim.Handle
}

// The core's event ops: the stages it schedules on itself.
const (
	opFinishSeg uint8 = iota
	opDemoteHalt
	opDemoteSleep
	opWakeDone
	opHaltWake
	opHaltFinish
)

// Fire implements sim.Target: it runs one of the core's own stages.
func (c *Core) Fire(op uint8) {
	switch op {
	case opFinishSeg:
		c.finishSegment()
	case opDemoteHalt:
		if c.state != IdleSpin {
			return
		}
		c.setState(Halted)
		c.haltCount++
		c.idleTimer = c.eng.After(c.cfg.SleepAfter, sim.Event{T: c, Op: opDemoteSleep})
		c.notify(c.m.onHalt)
	case opDemoteSleep:
		if c.state == Halted {
			c.setState(Sleeping)
		}
	case opWakeDone:
		c.setState(IdleSpin)
		c.armIdleDemotion()
		c.notify(c.m.onWake)
		c.resume()
	case opHaltWake:
		if c.state != Halted {
			panic(fmt.Sprintf("machine: core %d left Halted during HaltFor", c.id))
		}
		c.setState(Waking)
		c.eng.After(c.cfg.WakeLatencyC1, sim.Event{T: c, Op: opHaltFinish})
	case opHaltFinish:
		c.setState(Busy)
		c.notify(c.m.onWake)
		c.resume()
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// State returns the coarse execution state.
func (c *Core) State() CoreState { return c.state }

// Freq returns the core's current physical frequency.
func (c *Core) Freq() sim.Hertz { return c.dvfs.Freq(c.id) }

// Active reports whether the core is in an ACPI C0 state (the definition
// TurboMode uses for acceleration victims, §III-B.5).
func (c *Core) Active() bool { return c.state == Busy || c.state == IdleSpin }

// BusyTime returns the cumulative time spent in Busy.
func (c *Core) BusyTime() sim.Time {
	t := c.busyTime
	if c.state == Busy {
		t += c.eng.Now() - c.lastBusyIn
	}
	return t
}

// HaltCount returns how many times the core entered C1.
func (c *Core) HaltCount() int64 { return c.haltCount }

// ExecSegments returns how many Exec segments the core completed or started.
func (c *Core) ExecSegments() int64 { return c.execSegments }

func (c *Core) setState(s CoreState) {
	if c.state == Busy && s != Busy {
		c.busyTime += c.eng.Now() - c.lastBusyIn
	}
	if c.state != Busy && s == Busy {
		c.lastBusyIn = c.eng.Now()
	}
	c.state = s
	c.meter.SetState(c.id, c.dvfs.Actual(c.id), c.cstate())
}

func (c *Core) cstate() energy.CState {
	switch c.state {
	case Busy:
		return energy.C0Active
	case IdleSpin:
		return energy.C0Idle
	case Halted:
		return energy.C1Halt
	case Sleeping:
		return energy.C3Sleep
	case Waking:
		return energy.C1Halt // charging wake latency as C1 is close enough
	default:
		panic("machine: bad core state")
	}
}

// Exec runs `cycles` of frequency-scaled work plus `fixed` of
// frequency-invariant time (memory stalls, spin waits), then fires done.
// The core must not be Busy, Halted, Sleeping or Waking; the runtime wakes
// a core before dispatching to it.
func (c *Core) Exec(cycles int64, fixed sim.Time, done sim.Event) {
	if c.state == Halted || c.state == Sleeping || c.state == Waking {
		panic(fmt.Sprintf("machine: Exec on core %d in state %v", c.id, c.state))
	}
	if c.segActive {
		panic(fmt.Sprintf("machine: Exec on core %d with segment in flight", c.id))
	}
	if cycles < 0 || fixed < 0 {
		panic("machine: negative work")
	}
	c.cancelIdleTimer()
	c.execSegments++
	c.seg = segment{cycles: cycles, fixed: fixed}
	c.segActive = true
	c.done = done
	c.setState(Busy)
	c.startSegment()
}

// BusyWait runs a purely frequency-invariant active wait (e.g. blocking on
// a contended kernel lock): the core burns C0-active power for d, then
// fires done.
func (c *Core) BusyWait(d sim.Time, done sim.Event) { c.Exec(0, d, done) }

func (c *Core) startSegment() {
	seg := &c.seg
	seg.started = c.eng.Now()
	seg.duration = sim.Cycles(seg.cycles, c.Freq()) + seg.fixed
	seg.end = c.eng.After(seg.duration, sim.Event{T: c, Op: opFinishSeg})
}

func (c *Core) finishSegment() {
	if !c.segActive {
		// A rescheduled segment cancels its old completion event; with
		// generation-checked handles a stale completion can never fire.
		panic("machine: stale segment completion")
	}
	c.segActive = false
	c.seg = segment{}
	// done fires at the completion timestamp; the runtime immediately
	// either Execs again, Idles, or HaltsFor. The core stays Busy across
	// the (zero-duration) callback.
	c.resume()
}

// resume fires the pending continuation, clearing it first so the
// continuation may start the core's next Exec or HaltFor.
func (c *Core) resume() {
	done := c.done
	c.done = sim.Event{}
	done.Fire()
}

// onFreqChange rescales the in-flight segment onto the new frequency.
// Completed fractions of the cycle and fixed components drain
// proportionally: duration(f) = cycles·period(f) + fixed, and at fraction
// p of that duration, p of each component is consumed.
func (c *Core) onFreqChange() {
	c.meter.SetState(c.id, c.dvfs.Actual(c.id), c.cstate())
	seg := &c.seg
	if !c.segActive || seg.duration == 0 {
		return
	}
	elapsed := c.eng.Now() - seg.started
	if elapsed >= seg.duration {
		return // completion fires at this timestamp; let it
	}
	frac := float64(elapsed) / float64(seg.duration)
	seg.cycles -= int64(frac * float64(seg.cycles))
	seg.fixed -= sim.Time(frac * float64(seg.fixed))
	seg.end.Cancel()
	c.startSegment()
}

// Idle puts the core into the runtime idle loop. After Config.IdleSpin it
// halts (C1, notifying the halt listener), and after Config.SleepAfter in
// C1 it is demoted to C3.
func (c *Core) Idle() {
	if c.segActive {
		panic(fmt.Sprintf("machine: Idle on busy core %d", c.id))
	}
	c.setState(IdleSpin)
	c.armIdleDemotion()
}

func (c *Core) armIdleDemotion() {
	c.cancelIdleTimer()
	c.idleTimer = c.eng.After(c.cfg.IdleSpin, sim.Event{T: c, Op: opDemoteHalt})
}

func (c *Core) cancelIdleTimer() {
	if c.idleTimer.Pending() {
		c.idleTimer.Cancel()
	}
}

// Wake brings an idle, halted or sleeping core back to the runtime, then
// fires ready. From IdleSpin the core picks work up immediately (same
// timestamp); from C1/C3 the configured wake latency applies and the wake
// listener fires. Waking a core that is already waking or busy panics —
// the runtime tracks core ownership and must not double-dispatch.
func (c *Core) Wake(ready sim.Event) {
	switch c.state {
	case IdleSpin:
		c.cancelIdleTimer()
		ready.Fire()
	case Halted, Sleeping:
		lat := c.cfg.WakeLatencyC1
		if c.state == Sleeping {
			lat = c.cfg.WakeLatencyC3
		}
		c.cancelIdleTimer()
		c.setState(Waking)
		c.done = ready
		c.eng.After(lat, sim.Event{T: c, Op: opWakeDone})
	default:
		panic(fmt.Sprintf("machine: Wake on core %d in state %v", c.id, c.state))
	}
}

// HaltFor models a blocking kernel service inside a task (IO, page-fault
// contention): the core drops to C1 for d (notifying the halt listener —
// this is the situation where TurboMode reclaims budget, §V-D), then wakes
// and fires done after the wake latency.
func (c *Core) HaltFor(d sim.Time, done sim.Event) {
	if c.done.T != nil {
		panic(fmt.Sprintf("machine: HaltFor on core %d with a segment or wake in flight", c.id))
	}
	if d < 0 {
		panic("machine: negative halt duration")
	}
	c.cancelIdleTimer()
	c.setState(Halted)
	c.haltCount++
	c.done = done
	c.notify(c.m.onHalt)
	c.eng.After(d, sim.Event{T: c, Op: opHaltWake})
}

// notify tells a machine-level C-state listener, if one is registered,
// about this core.
func (c *Core) notify(listener func(core int)) {
	if listener != nil {
		listener(c.id)
	}
}
