// Package machine models the hardware of the paper's experimental setup
// (§IV, Table I): a 32-core multicore with per-core dual-rail DVFS, ACPI
// C-states, and a DVFS controller with a 25 µs reconfiguration latency.
//
// The simulator operates at task/core granularity rather than instruction
// granularity: a core executes frequency-scaled compute
// segments and frequency-invariant memory/wait segments, can halt (C1) and
// deep-sleep (C3), and reacts to mid-segment frequency changes by rescaling
// the remaining work onto the new operating point.
package machine

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/sim"
)

// Config describes the simulated processor. The zero value is not valid;
// start from TableIConfig.
type Config struct {
	// Cores is the number of cores (Table I: 32).
	Cores int
	// Power is the power model holding the DVFS operating points
	// (Table I: fast 2 GHz/1.0 V, slow 1 GHz/0.8 V).
	Power *energy.Model
	// FastLevel and SlowLevel name the two dual-rail operating points
	// within Power.Points.
	FastLevel, SlowLevel energy.Level
	// TransitionLatency is the time between a DVFS controller write and
	// the new voltage/frequency taking effect (Table I: 25 µs).
	TransitionLatency sim.Time
	// IdleSpin is how long a core spins in the runtime idle loop (C0)
	// before the OS issues `halt` and it drops to C1 (§III-B.5).
	IdleSpin sim.Time
	// SleepAfter is how long a core stays in C1 before the OS moves it to
	// C3 (§III-B.5: "If a core remains in a C1 state for a long period").
	SleepAfter sim.Time
	// WakeLatencyC1 and WakeLatencyC3 are the halt→running latencies.
	WakeLatencyC1, WakeLatencyC3 sim.Time
}

// TableIConfig returns the paper's processor configuration at the level of
// detail the simulator uses. Micro-architectural parameters of Table I
// (ROB, caches, NoC geometry) are folded into the workloads' per-task
// cycle and memory-time distributions.
func TableIConfig() Config {
	return Config{
		Cores:             32,
		Power:             energy.Default(),
		FastLevel:         energy.Fast,
		SlowLevel:         energy.Slow,
		TransitionLatency: 25 * sim.Microsecond,
		// Nanos++ workers spin in the idle loop for a while before the OS
		// halts them; during the spin they are ACPI-active (C0) and thus
		// TurboMode acceleration candidates — the "runtime idle-loops"
		// mis-boost of §V-D.
		IdleSpin:      60 * sim.Microsecond,
		SleepAfter:    500 * sim.Microsecond,
		WakeLatencyC1: 2 * sim.Microsecond,
		WakeLatencyC3: 12 * sim.Microsecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: need at least one core, have %d", c.Cores)
	}
	if c.Power == nil {
		return fmt.Errorf("machine: nil power model")
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	for _, l := range []energy.Level{c.FastLevel, c.SlowLevel} {
		if int(l) < 0 || int(l) >= c.Power.Levels() {
			return fmt.Errorf("machine: level %d outside power model (%d levels)", l, c.Power.Levels())
		}
	}
	if c.FastLevel == c.SlowLevel {
		return fmt.Errorf("machine: fast and slow levels are both %d", c.FastLevel)
	}
	ff := c.Power.Point(c.FastLevel).Freq
	sf := c.Power.Point(c.SlowLevel).Freq
	if ff <= sf {
		return fmt.Errorf("machine: fast level (%v) not faster than slow (%v)", ff, sf)
	}
	if c.TransitionLatency < 0 || c.IdleSpin < 0 || c.SleepAfter < 0 ||
		c.WakeLatencyC1 < 0 || c.WakeLatencyC3 < 0 {
		return fmt.Errorf("machine: negative latency in config")
	}
	return nil
}
