package rsu

import (
	"cata/internal/machine"
	"cata/internal/rsm"
)

// HaltAware extends the RSU with the improvement the paper itself
// identifies in §V-D: plain CATA is "not aware" when a task blocks in a
// kernel service, "causing the halted core to retain its accelerated
// state", while TurboMode reclaims that budget. HaltAware closes the gap
// by treating a C-state halt exactly like an OS context switch (§III-B.3):
// on halt the core's criticality is saved and its budget released through
// the virtualization path; on wake the task re-competes for acceleration.
//
// This is an extension beyond the evaluated paper configurations — the
// "coordinated solution" direction of §VI-D — exposed as its own policy
// in the experiment harness so its benefit on IO-heavy pipelines (dedup,
// ferret) is measurable against plain CATA+RSU.
type HaltAware struct {
	rsu    *RSU
	parked []bool
	saved  []rsm.CritState

	reclaims int64
}

// NewHaltAware wraps an initialized RSU and registers on the machine's
// halt/wake notifications. The machine must not have another halt/wake
// listener (TurboMode configurations do not use the RSU).
func NewHaltAware(r *RSU, mach *machine.Machine) *HaltAware {
	h := &HaltAware{
		rsu:    r,
		parked: make([]bool, mach.Cores()),
		saved:  make([]rsm.CritState, mach.Cores()),
	}
	mach.OnHalt(h.onHalt)
	mach.OnWake(h.onWake)
	return h
}

// RSU returns the wrapped unit.
func (h *HaltAware) RSU() *RSU { return h.rsu }

// Reclaims returns how many halts released budget held by a running task.
func (h *HaltAware) Reclaims() int64 { return h.reclaims }

func (h *HaltAware) onHalt(core int) {
	if !h.rsu.Enabled() || h.rsu.ReadCritic(core) == rsm.NoTask {
		return // idle-loop halt: no task state to park
	}
	if h.rsu.Table().Accelerated(core) {
		h.reclaims++
	}
	h.saved[core] = h.rsu.SaveContext(core)
	h.parked[core] = true
}

func (h *HaltAware) onWake(core int) {
	if !h.parked[core] {
		return
	}
	h.parked[core] = false
	if h.rsu.Enabled() {
		h.rsu.RestoreContext(core, h.saved[core])
	}
}
