package rts

import (
	"testing"

	"cata/internal/program"
	"cata/internal/tdg"
)

// phasedProg builds phases of a 4-task inout chain beside 8 independent
// tasks, separated by barriers. Each phase's chain head depends on the
// previous phase's (already finished) chain tail, so submissions meet
// completed predecessors, while bottom levels stay bounded.
func phasedProg(phases int) *program.Program {
	p := &program.Program{Name: "phased"}
	for ph := 0; ph < phases; ph++ {
		for i := 0; i < 4; i++ {
			p.AddTask(program.TaskSpec{Type: critType, CPUCycles: 20_000,
				Ins: []tdg.Token{1}, Outs: []tdg.Token{1}})
		}
		for i := 0; i < 8; i++ {
			p.AddTask(program.TaskSpec{Type: plainType, CPUCycles: 30_000})
		}
		p.AddBarrier()
	}
	return p
}

// TestClosedRunAllocatesNothingPerTask: a closed run on a compiled
// program allocates the same whatever the program's length. Its tasks
// come from one slab and its dependences were resolved at compile time,
// so creating, dispatching and completing a task allocates nothing.
func TestClosedRunAllocatesNothingPerTask(t *testing.T) {
	allocs := func(p *program.Compiled) float64 {
		return testing.AllocsPerRun(5, func() {
			eng, m := newMachine(t, 8)
			cfg := fifoConfig(m, nil)
			cfg.Program = p
			r, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := compiled(phasedProg(20)), compiled(phasedProg(160))
	a, b := allocs(short), allocs(long)
	if b != a {
		t.Fatalf("%d-task run allocated %v times, %d-task run %v: %.3f allocs per extra task, want 0",
			short.DAG().Len(), a, long.DAG().Len(), b, (b-a)/float64(long.DAG().Len()-short.DAG().Len()))
	}
}
