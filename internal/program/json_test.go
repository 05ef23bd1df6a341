package program_test

import (
	"bytes"
	"strings"
	"testing"

	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
	"cata/internal/workloads"
)

// TestJSONRoundTripIdempotent: export → import → export is the identity
// on bytes, for every paper benchmark (they cover barriers, IO times,
// inout chains and multi-token joins).
func TestJSONRoundTripIdempotent(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.Build(42, 0.2)
		var first bytes.Buffer
		if err := program.WriteJSON(&first, p); err != nil {
			t.Fatalf("%s: export: %v", w.Name(), err)
		}
		back, err := program.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: import: %v", w.Name(), err)
		}
		var second bytes.Buffer
		if err := program.WriteJSON(&second, back); err != nil {
			t.Fatalf("%s: re-export: %v", w.Name(), err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: round trip is not idempotent", w.Name())
		}
	}
}

// TestJSONPreservesEverything: a hand-built program with every feature —
// criticality levels, memory and IO time, barriers, shared tokens —
// survives the round trip structurally intact.
func TestJSONPreservesEverything(t *testing.T) {
	hot := &tdg.TaskType{Name: "hot", Criticality: 2}
	cold := &tdg.TaskType{Name: "cold"}
	p := &program.Program{Name: "everything"}
	p.AddTask(program.TaskSpec{Type: hot, CPUCycles: 123, MemTime: 45 * sim.Nanosecond,
		IOTime: 6 * sim.Microsecond, Outs: []tdg.Token{1}})
	p.AddBarrier()
	p.AddTask(program.TaskSpec{Type: cold, CPUCycles: 7, Ins: []tdg.Token{1}, Outs: []tdg.Token{1, 2}})

	var buf bytes.Buffer
	if err := program.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := program.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "everything" || back.Tasks() != 2 || back.Barriers() != 1 {
		t.Fatalf("shape lost: %+v", back)
	}
	t0 := back.Items[0].Task
	if t0.Type.Name != "hot" || t0.Type.Criticality != 2 ||
		t0.CPUCycles != 123 || t0.MemTime != 45*sim.Nanosecond || t0.IOTime != 6*sim.Microsecond {
		t.Fatalf("task 0 lost fields: %+v (type %+v)", t0, t0.Type)
	}
	t1 := back.Items[2].Task
	if len(t1.Ins) != 1 || t1.Ins[0] != 1 || len(t1.Outs) != 2 {
		t.Fatalf("task 1 lost tokens: %+v", t1)
	}
}

// TestJSONRejectsBadTraces: structural errors fail loudly.
func TestJSONRejectsBadTraces(t *testing.T) {
	for name, doc := range map[string]string{
		"bad version":     `{"version": 2, "name": "x", "types": [], "items": []}`,
		"not json":        `nope`,
		"undeclared type": `{"version": 1, "name": "x", "types": [], "items": [{"type": "ghost", "cpu_cycles": 1}]}`,
		"duplicate type":  `{"version": 1, "name": "x", "types": [{"name": "a"}, {"name": "a"}], "items": [{"type": "a", "cpu_cycles": 1}]}`,
		"empty item":      `{"version": 1, "name": "x", "types": [{"name": "a"}], "items": [{}]}`,
		"no tasks":        `{"version": 1, "name": "x", "types": [], "items": [{"barrier": true}]}`,
	} {
		if _, err := program.ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJSONRejectsAmbiguousTypeNames: two distinct *TaskType values with
// the same name cannot be encoded faithfully, so export refuses.
func TestJSONRejectsAmbiguousTypeNames(t *testing.T) {
	a := &tdg.TaskType{Name: "same"}
	b := &tdg.TaskType{Name: "same", Criticality: 1}
	p := &program.Program{Name: "clash"}
	p.AddTask(program.TaskSpec{Type: a, CPUCycles: 1})
	p.AddTask(program.TaskSpec{Type: b, CPUCycles: 1})
	if err := program.WriteJSON(&bytes.Buffer{}, p); err == nil {
		t.Fatal("ambiguous type names accepted")
	}
}

// FuzzReadJSON: every input either fails to import, or imports into a
// program that compiles (validation included) into a DAG with one node
// per task and edges only to earlier tasks, or fails validation with an
// error. No input panics.
func FuzzReadJSON(f *testing.F) {
	hot := &tdg.TaskType{Name: "hot", Criticality: 1}
	p := &program.Program{Name: "seed"}
	p.AddTask(program.TaskSpec{Type: hot, CPUCycles: 10, IOTime: 3, Outs: []tdg.Token{1, 2}})
	p.AddBarrier()
	p.AddTask(program.TaskSpec{Type: hot, MemTime: 4, Ins: []tdg.Token{1}, Outs: []tdg.Token{3}})
	p.AddTask(program.TaskSpec{Type: hot, CPUCycles: 7, Ins: []tdg.Token{2, 3}, Outs: []tdg.Token{2}})
	var buf bytes.Buffer
	if err := program.WriteJSON(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"version":1,"name":"x","types":[{"name":"a","criticality":1}],` +
		`"items":[{"type":"a","cpu_cycles":5,"outs":[1]},{"barrier":true},{"type":"a","mem_ps":3,"ins":[1],"outs":[1,2]}]}`)
	f.Add(`{"version":1,"name":"empty","types":[],"items":[]}`)
	f.Add(`{"version":2}`)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := program.ReadJSON(strings.NewReader(src))
		if err != nil {
			return
		}
		c, err := program.Compile(p)
		if err != nil {
			return
		}
		dag := c.DAG()
		if dag.Len() != p.Tasks() {
			t.Fatalf("compiled %d tasks from a program of %d", dag.Len(), p.Tasks())
		}
		for i := 0; i < dag.Len(); i++ {
			for _, pred := range dag.Preds(i) {
				if int(pred) >= i {
					t.Fatalf("task %d depends on later task %d", i, pred)
				}
			}
		}
	})
}
