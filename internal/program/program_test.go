package program

import (
	"testing"

	"cata/internal/sim"
	"cata/internal/tdg"
)

var tt = &tdg.TaskType{Name: "t"}

func TestAddAndCount(t *testing.T) {
	var p Program
	p.Name = "x"
	p.AddTask(TaskSpec{Type: tt, CPUCycles: 1000})
	p.AddBarrier()
	p.AddTask(TaskSpec{Type: tt, CPUCycles: 2000, MemTime: sim.Microsecond})
	if p.Tasks() != 2 || p.Barriers() != 1 || len(p.Items) != 3 {
		t.Fatalf("counts: %d tasks %d barriers %d items", p.Tasks(), p.Barriers(), len(p.Items))
	}
}

func TestAddTaskCopiesSpec(t *testing.T) {
	var p Program
	spec := TaskSpec{Type: tt, CPUCycles: 1000}
	p.AddTask(spec)
	spec.CPUCycles = 9999
	if p.Items[0].Task.CPUCycles != 1000 {
		t.Fatal("AddTask aliased the caller's spec")
	}
}

func TestTotalWork(t *testing.T) {
	var p Program
	p.AddTask(TaskSpec{Type: tt, CPUCycles: 1000, MemTime: 500 * sim.Nanosecond})
	p.AddTask(TaskSpec{Type: tt, CPUCycles: 2000})
	// At 1 GHz: 1µs + 0.5µs + 2µs = 3.5µs.
	if w := p.TotalWork(sim.Gigahertz); w != 3500*sim.Nanosecond {
		t.Fatalf("TotalWork = %v", w)
	}
	// At 2 GHz the cycle part halves: 0.5 + 0.5 + 1 = 2µs.
	if w := p.TotalWork(2 * sim.Gigahertz); w != 2*sim.Microsecond {
		t.Fatalf("TotalWork@2GHz = %v", w)
	}
}

func TestValidate(t *testing.T) {
	good := &Program{Name: "ok"}
	good.AddTask(TaskSpec{Type: tt, CPUCycles: 10})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]*Program{
		"unnamed": func() *Program {
			p := &Program{}
			p.AddTask(TaskSpec{Type: tt, CPUCycles: 1})
			return p
		}(),
		"empty": {Name: "e"},
		"typeless": func() *Program {
			p := &Program{Name: "t"}
			p.AddTask(TaskSpec{CPUCycles: 1})
			return p
		}(),
		"negative": func() *Program {
			p := &Program{Name: "n"}
			p.AddTask(TaskSpec{Type: tt, CPUCycles: -1})
			return p
		}(),
		"zero-work": func() *Program {
			p := &Program{Name: "z"}
			p.AddTask(TaskSpec{Type: tt})
			return p
		}(),
		"malformed-item": {Name: "m", Items: []Item{{}}},
		"task-and-barrier": {Name: "tb", Items: []Item{
			{Task: &TaskSpec{Type: tt, CPUCycles: 1}, Barrier: true},
		}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s validated", name)
		}
	}
}

// TestCompile: compiling validates the program, with Validate's error,
// and resolves one DAG node per task — barriers are not nodes, and
// dependences resolve across them — the same for a fresh Compiler as
// for a reused one.
func TestCompile(t *testing.T) {
	if _, err := Compile(&Program{Name: "empty"}); err == nil || err.Error() != "program empty: no tasks" {
		t.Fatalf("empty program: %v", err)
	}
	if _, err := Compile(nil); err == nil {
		t.Fatal("nil program compiled")
	}
	p := &Program{Name: "x"}
	p.AddTask(TaskSpec{Type: tt, CPUCycles: 1, Outs: []tdg.Token{1}})
	p.AddBarrier()
	p.AddTask(TaskSpec{Type: tt, CPUCycles: 1, Ins: []tdg.Token{1}})
	p.AddTask(TaskSpec{Type: tt, CPUCycles: 1, Ins: []tdg.Token{1}, Outs: []tdg.Token{1}})
	var reused Compiler
	for round := 0; round < 2; round++ {
		c, err := reused.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		d := c.DAG()
		if c.Name() != "x" || c.Program() != p || d.Len() != 3 {
			t.Fatalf("round %d: compiled %q with %d tasks", round, c.Name(), d.Len())
		}
		// Task 1 reads what task 0 wrote (across the barrier); task 2
		// rewrites it after both (WAW + WAR).
		if len(d.Preds(0)) != 0 || len(d.Preds(1)) != 1 || d.Preds(1)[0] != 0 || len(d.Preds(2)) != 2 {
			t.Fatalf("round %d: preds %v %v %v", round, d.Preds(0), d.Preds(1), d.Preds(2))
		}
		if s := d.Succs(0); len(s) != 2 || s[0] != 1 || s[1] != 2 {
			t.Fatalf("round %d: task 0 succs %v, want [1 2]", round, s)
		}
	}
}
