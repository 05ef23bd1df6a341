package machine

import (
	"fmt"

	"cata/internal/energy"
	"cata/internal/probe"
	"cata/internal/sim"
)

// Machine assembles the simulated processor: the cores, the DVFS
// controller and the energy meter, wired so that frequency changes reach
// running cores and every power-relevant state change is metered.
type Machine struct {
	Eng   *sim.Engine
	Cfg   Config
	DVFS  *DVFSController
	Meter *energy.Meter
	cores []Core

	onHalt func(core int)
	onWake func(core int)
}

// New builds a machine. All cores start at the slow level, in the runtime
// idle loop.
func New(eng *sim.Engine, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Eng: eng, Cfg: cfg}
	m.DVFS = NewDVFSController(eng, &m.Cfg)
	m.Meter = energy.NewMeter(cfg.Power, cfg.Cores, eng.Now)
	m.cores = make([]Core, cfg.Cores)
	for i := range m.cores {
		c := &m.cores[i]
		*c = Core{id: i, m: m, eng: eng, cfg: &m.Cfg, dvfs: m.DVFS, meter: m.Meter, state: IdleSpin}
		c.armIdleDemotion()
	}
	m.DVFS.OnActualChange(func(core int, _ energy.Level) {
		m.cores[core].onFreqChange()
	})
	return m, nil
}

// MustNew is New, panicking on configuration errors. Intended for tests
// and examples with known-good configs.
func MustNew(eng *sim.Engine, cfg Config) *Machine {
	m, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Core returns core i.
func (m *Machine) Core(i int) *Core { return &m.cores[i] }

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// OnHalt registers a listener invoked whenever any core enters C1
// (TurboMode hooks in here). Only one listener is supported.
func (m *Machine) OnHalt(fn func(core int)) { m.onHalt = fn }

// OnWake registers a listener invoked whenever any core leaves C1/C3.
func (m *Machine) OnWake(fn func(core int)) { m.onWake = fn }

// SetRecorder attaches a flight recorder to the machine: the DVFS
// controller reports requested/actual transitions and the energy meter
// reports total-chip-power changes. Each core's current physical level is
// reported immediately so the trace's frequency counter tracks have a
// seed value at attach time; attach before SetHeterogeneous to also see
// the static class assignment as transitions.
func (m *Machine) SetRecorder(rec probe.Recorder) {
	m.DVFS.SetRecorder(rec)
	m.Meter.SetRecorder(rec)
	if rec == nil {
		return
	}
	for i := range m.cores {
		lvl := m.DVFS.Actual(i)
		rec.FreqActual(m.Eng.Now(), i, int(lvl), m.Cfg.Power.Point(lvl).Freq, 0)
	}
}

// SetHeterogeneous statically configures the first fastCores cores at the
// fast level and the rest at the slow level, with no transitions. This is
// the fixed heterogeneous machine of the FIFO and CATS experiments (§IV:
// "the frequency of each core does not change during the execution").
func (m *Machine) SetHeterogeneous(fastCores int) {
	if fastCores < 0 || fastCores > len(m.cores) {
		panic(fmt.Sprintf("machine: fastCores %d out of range [0,%d]", fastCores, len(m.cores)))
	}
	for i := range m.cores {
		level := m.Cfg.SlowLevel
		if i < fastCores {
			level = m.Cfg.FastLevel
		}
		m.DVFS.SetInitial(i, level)
	}
}

// IsFastCore reports whether the core's *current committed target* is the
// fast level. For the static heterogeneous experiments this is the fixed
// core class CATS schedules against.
func (m *Machine) IsFastCore(core int) bool {
	return m.DVFS.Target(core) == m.Cfg.FastLevel
}

// FinishEnergy closes the meter and returns total chip energy in joules.
func (m *Machine) FinishEnergy() float64 { return m.Meter.Finish() }
