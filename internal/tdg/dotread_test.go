package tdg

import (
	"bytes"
	"strings"
	"testing"

	"cata/internal/sim"
)

// TestDOTRoundTrip: WriteDOT → ReadDOT preserves identity, costs,
// criticality and the full edge set.
func TestDOTRoundTrip(t *testing.T) {
	crit := &TaskType{Name: "spine", Criticality: 2}
	plain := &TaskType{Name: "work"}
	in := instance(access{nil, toks(1)}, access{toks(1), toks(2)}, access{toks(1), toks(3)}, access{toks(2, 3), nil})
	g := New(nil)
	var tasks []*Task
	for id, tt := range []*TaskType{crit, plain, plain, crit} {
		tk := in.Next()
		tk.Type, tk.CPUCycles = tt, int64(100*(id+1))
		tk.MemTime, tk.IOTime = sim.Time(10*(id+1)), sim.Time(id)
		tk.Critical = tt.Criticality > 0
		g.Submit(tk)
		tasks = append(tasks, tk)
	}

	var buf bytes.Buffer
	if err := WriteDOT(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDOT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 {
		t.Fatalf("got %d nodes, want 4", len(back))
	}
	for i, n := range back {
		want := tasks[i]
		if n.Type != want.Type.Name || n.Criticality != want.Type.Criticality {
			t.Errorf("node %d: type %q/%d, want %q/%d", i, n.Type, n.Criticality, want.Type.Name, want.Type.Criticality)
		}
		if n.CPUCycles != want.CPUCycles || n.MemTime != want.MemTime || n.IOTime != want.IOTime {
			t.Errorf("node %d: costs %d/%v/%v, want %d/%v/%v", i,
				n.CPUCycles, n.MemTime, n.IOTime, want.CPUCycles, want.MemTime, want.IOTime)
		}
	}
	if len(back[1].Preds) != 1 || back[1].Preds[0] != 0 {
		t.Errorf("node 1 preds = %v, want [0]", back[1].Preds)
	}
	if len(back[3].Preds) != 2 {
		t.Errorf("node 3 preds = %v, want two", back[3].Preds)
	}
}

// TestReadDOTHandWritten: a plain human-written digraph — implicit
// nodes, chained edges, comments, quoted ids, no cost attributes.
func TestReadDOTHandWritten(t *testing.T) {
	src := `
// a tiny diamond
digraph g {
  node [shape=circle];
  src -> left -> sink;
  src -> "right node";
  "right node" -> sink
}
`
	nodes, err := ReadDOT(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes, want 4", len(nodes))
	}
	byName := map[string]DOTTask{}
	for _, n := range nodes {
		byName[n.Name] = n
	}
	if _, ok := byName["right node"]; !ok {
		t.Fatalf("quoted id lost: %+v", nodes)
	}
	if len(byName["sink"].Preds) != 2 {
		t.Fatalf("sink preds = %v, want two", byName["sink"].Preds)
	}
	if byName["src"].CPUCycles != 0 {
		t.Fatal("hand-written node unexpectedly has costs")
	}
}

// TestReadDOTKeywordLikeIDs: ids that merely start with a reserved word
// ("node1", "edge_a") are real nodes, not default-attribute statements.
func TestReadDOTKeywordLikeIDs(t *testing.T) {
	src := `
digraph g {
  node [shape=circle];
  node1 -> node2;
  edge_a -> node1;
  graph2 [cycles=5];
}
`
	nodes, err := ReadDOT(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes, want 4: %+v", len(nodes), nodes)
	}
	byName := map[string]DOTTask{}
	for _, n := range nodes {
		byName[n.Name] = n
	}
	if len(byName["node1"].Preds) != 1 || len(byName["node2"].Preds) != 1 {
		t.Fatalf("edges between keyword-prefixed ids lost: %+v", nodes)
	}
	if byName["graph2"].CPUCycles != 5 {
		t.Fatalf("graph2 attributes lost: %+v", byName["graph2"])
	}
}

// TestReadDOTErrors: malformed input fails with a line-numbered error.
func TestReadDOTErrors(t *testing.T) {
	for name, src := range map[string]string{
		"empty":            "digraph g {\n}\n",
		"no header":        "a -> b;\n",
		"subgraph":         "digraph g {\n subgraph c { a; }\n}\n",
		"unterminated":     "digraph g {\n a [label=\"x\";\n}\n",
		"bad cycles":       "digraph g {\n a [cycles=lots];\n}\n",
		"negative cycles":  "digraph g {\n a [cycles=-1];\n}\n",
		"empty edge chain": "digraph g {\n a -> ;\n}\n",
	} {
		if _, err := ReadDOT(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadDOT: every input either fails to parse, or parses into nodes
// whose edges are in range and which compile — each node writing its own
// datum and reading its predecessors', the way the dot workload lowers
// them — into a DAG that runs to completion. No input panics.
func FuzzReadDOT(f *testing.F) {
	f.Add("digraph g {\n  a -> b -> c;\n  a -> c;\n}\n")
	f.Add("digraph tdg {\n  t0 [label=\"x\" type=\"spine\" criticality=2 cycles=100 mem_ps=10 io_ps=0];\n  t1 [cycles=5];\n  t0 -> t1;\n}\n")
	f.Add("strict digraph {\n  node [shape=circle];\n  \"right node\" -> sink // c\n  sink -> \"right node\"\n}\n")
	f.Add("digraph g {\n subgraph c { a; }\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		nodes, err := ReadDOT(strings.NewReader(src))
		if err != nil {
			return
		}
		if len(nodes) == 0 {
			t.Fatal("ReadDOT accepted a graph with no nodes")
		}
		var r Resolver
		var ins []Token
		for i, n := range nodes {
			ins = ins[:0]
			for _, p := range n.Preds {
				if p < 0 || p >= len(nodes) {
					t.Fatalf("node %d has predecessor %d out of range", i, p)
				}
				ins = append(ins, Token(p))
			}
			r.Add(ins, []Token{Token(i)})
		}
		var in Instance
		in.Init(r.DAG())
		var ready []*Task
		g := New(func(t *Task) { ready = append(ready, t) })
		submitAll(g, &in)
		for len(ready) > 0 {
			tk := ready[0]
			ready = ready[1:]
			g.Start(tk)
			g.Complete(tk)
		}
		if !g.AllDone() || g.Completed() != len(nodes) {
			t.Fatalf("compiled DOT graph drained %d of %d tasks", g.Completed(), len(nodes))
		}
	})
}
