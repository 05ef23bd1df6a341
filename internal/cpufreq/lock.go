// Package cpufreq models the software DVFS stack the paper's runtime uses
// (§III-A, Figure 2): the Linux cpufreq framework with a userspace
// governor. A frequency change is a write to a per-core policy file, which
// traps into the kernel, runs the cpufreq driver under a global lock, and
// programs the DVFS controller. Every step costs time on the *calling*
// core, and the lock serializes concurrent reconfigurations — the §V-C
// bottleneck that motivates the RSU.
package cpufreq

import (
	"cata/internal/sim"
	"cata/internal/stats"
)

// Lock is a FIFO lock in simulated time. Waiters are granted the lock in
// arrival order; while waiting, the caller's core keeps burning active
// power (the runtime leaves it in its busy state, modeling a blocking
// kernel mutex acquired from a tight path).
type Lock struct {
	eng     *sim.Engine
	busy    bool
	grantAt sim.Time
	waiters []waiter

	// Statistics for the §V-C analysis.
	acquisitions int64
	contended    int64
	waitTimes    stats.DurationSummary
	holdTimes    stats.DurationSummary
}

type waiter struct {
	since sim.Time
	ev    sim.Event
}

// NewLock returns an unlocked lock.
func NewLock(eng *sim.Engine) *Lock { return &Lock{eng: eng} }

// Acquire requests the lock; ev fires (synchronously if the lock is free,
// otherwise when granted) with the lock held. The caller must eventually
// call Release from within ev's critical section.
func (l *Lock) Acquire(ev sim.Event) {
	now := l.eng.Now()
	if !l.busy {
		l.busy = true
		l.grantAt = now
		l.acquisitions++
		l.waitTimes.ObserveTime(0)
		ev.Fire()
		return
	}
	l.contended++
	l.waiters = append(l.waiters, waiter{since: now, ev: ev})
}

// Release frees the lock; the oldest waiter (if any) is granted
// immediately at the current timestamp.
func (l *Lock) Release() {
	if !l.busy {
		panic("cpufreq: Release of free lock")
	}
	now := l.eng.Now()
	l.holdTimes.ObserveTime(now - l.grantAt)
	if len(l.waiters) == 0 {
		l.busy = false
		return
	}
	w := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.grantAt = now
	l.acquisitions++
	l.waitTimes.ObserveTime(now - w.since)
	w.ev.Fire()
}

// Held reports whether the lock is currently held.
func (l *Lock) Held() bool { return l.busy }

// QueueLen returns the number of waiters.
func (l *Lock) QueueLen() int { return len(l.waiters) }

// Acquisitions returns total grants and how many had to wait.
func (l *Lock) Acquisitions() (total, contended int64) {
	return l.acquisitions, l.contended
}

// WaitTimes summarizes time spent waiting for the lock per acquisition.
func (l *Lock) WaitTimes() *stats.DurationSummary { return &l.waitTimes }

// HoldTimes summarizes critical-section lengths.
func (l *Lock) HoldTimes() *stats.DurationSummary { return &l.holdTimes }
