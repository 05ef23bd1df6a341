package tdg

import (
	"strings"
	"testing"
	"testing/quick"

	"cata/internal/sim"
	"cata/internal/xrand"
)

var testType = &TaskType{Name: "t"}

func mkTask(id int, ins, outs []Token) *Task {
	return &Task{ID: id, Type: testType, CPUCycles: 1000, Ins: ins, Outs: outs}
}

// collectReady returns a graph plus a pointer to the slice of tasks that
// became ready, in order.
func collectReady() (*Graph, *[]*Task) {
	var ready []*Task
	g := New(func(t *Task) { ready = append(ready, t) })
	return g, &ready
}

func runAll(g *Graph, ready *[]*Task) []*Task {
	var order []*Task
	for len(*ready) > 0 {
		t := (*ready)[0]
		*ready = (*ready)[1:]
		g.Start(t)
		g.Complete(t)
		order = append(order, t)
	}
	return order
}

func TestRAWDependence(t *testing.T) {
	g, ready := collectReady()
	w := mkTask(0, nil, []Token{1})
	r := mkTask(1, []Token{1}, nil)
	g.Submit(w)
	g.Submit(r)
	if len(*ready) != 1 || (*ready)[0] != w {
		t.Fatalf("ready = %v, want just writer", *ready)
	}
	if r.State() != Waiting || r.nwait != 1 {
		t.Fatalf("reader state = %v nwait = %d", r.State(), r.nwait)
	}
	g.Start(w)
	if n := g.Complete(w); n != 1 {
		t.Fatalf("Complete released %d, want 1", n)
	}
	if r.State() != Ready {
		t.Fatalf("reader state = %v, want ready", r.State())
	}
}

func TestWAWAndWARDependences(t *testing.T) {
	g, _ := collectReady()
	w1 := mkTask(0, nil, []Token{1})
	r1 := mkTask(1, []Token{1}, nil)
	r2 := mkTask(2, []Token{1}, nil)
	w2 := mkTask(3, nil, []Token{1})
	for _, task := range []*Task{w1, r1, r2, w2} {
		g.Submit(task)
	}
	// w2 must wait for w1 (WAW) and both readers (WAR).
	if w2.nwait != 3 {
		t.Fatalf("w2 waits on %d tasks, want 3 (WAW + 2×WAR)", w2.nwait)
	}
	// Readers wait only on the writer.
	if r1.nwait != 1 || r2.nwait != 1 {
		t.Fatalf("readers wait %d/%d, want 1/1", r1.nwait, r2.nwait)
	}
}

func TestReadersResetAfterWrite(t *testing.T) {
	g, _ := collectReady()
	w1 := mkTask(0, nil, []Token{1})
	r1 := mkTask(1, []Token{1}, nil)
	w2 := mkTask(2, nil, []Token{1})
	r2 := mkTask(3, []Token{1}, nil)
	w3 := mkTask(4, nil, []Token{1})
	for _, task := range []*Task{w1, r1, w2, r2, w3} {
		g.Submit(task)
	}
	// w3 depends on w2 (WAW) and r2 (WAR) but NOT on r1 — r1 precedes w2.
	if w3.nwait != 2 {
		t.Fatalf("w3 waits on %d, want 2", w3.nwait)
	}
	for _, p := range w3.Preds() {
		if p == r1 {
			t.Fatal("w3 has stale WAR edge to pre-w2 reader")
		}
	}
}

func TestInoutDependence(t *testing.T) {
	g, _ := collectReady()
	a := mkTask(0, []Token{1}, []Token{1}) // inout
	b := mkTask(1, []Token{1}, []Token{1}) // inout
	c := mkTask(2, []Token{1}, []Token{1}) // inout
	g.Submit(a)
	g.Submit(b)
	g.Submit(c)
	// Inout chains serialize: c waits only on b, b only on a.
	if a.nwait != 0 || b.nwait != 1 || c.nwait != 1 {
		t.Fatalf("inout chain nwait = %d/%d/%d, want 0/1/1", a.nwait, b.nwait, c.nwait)
	}
}

func TestEdgeDedupe(t *testing.T) {
	g, _ := collectReady()
	w := mkTask(0, nil, []Token{1, 2, 3})
	r := mkTask(1, []Token{1, 2, 3}, nil)
	g.Submit(w)
	g.Submit(r)
	if r.nwait != 1 {
		t.Fatalf("nwait = %d: duplicate edges not deduped", r.nwait)
	}
	if len(w.Succs()) != 1 {
		t.Fatalf("writer succs = %d, want 1", len(w.Succs()))
	}
}

func TestDependenceOnDoneTaskIgnored(t *testing.T) {
	g, ready := collectReady()
	w := mkTask(0, nil, []Token{1})
	g.Submit(w)
	runAll(g, ready)
	r := mkTask(1, []Token{1}, nil)
	g.Submit(r)
	if r.State() != Ready {
		t.Fatalf("reader of completed writer should be ready, got %v", r.State())
	}
}

func TestBottomLevelChain(t *testing.T) {
	g, _ := collectReady()
	// Chain t0 <- t1 <- t2 (via inout token), submitted in order.
	ts := make([]*Task, 3)
	for i := range ts {
		ts[i] = mkTask(i, []Token{1}, []Token{1})
		g.Submit(ts[i])
	}
	// Figure 1 numbering: leaf 0, each ancestor +1.
	if ts[0].BottomLevel != 2 || ts[1].BottomLevel != 1 || ts[2].BottomLevel != 0 {
		t.Fatalf("BLs = %d,%d,%d, want 2,1,0",
			ts[0].BottomLevel, ts[1].BottomLevel, ts[2].BottomLevel)
	}
	if g.MaxLiveBL() != 2 {
		t.Fatalf("MaxLiveBL = %d, want 2", g.MaxLiveBL())
	}
}

func TestBottomLevelDiamond(t *testing.T) {
	g, _ := collectReady()
	top := mkTask(0, nil, []Token{1})
	left := mkTask(1, []Token{1}, []Token{2})
	right := mkTask(2, []Token{1}, []Token{3})
	bottom := mkTask(3, []Token{2, 3}, nil)
	for _, task := range []*Task{top, left, right, bottom} {
		g.Submit(task)
	}
	if bottom.BottomLevel != 0 || left.BottomLevel != 1 || right.BottomLevel != 1 {
		t.Fatalf("BLs wrong: bottom=%d left=%d right=%d",
			bottom.BottomLevel, left.BottomLevel, right.BottomLevel)
	}
	if top.BottomLevel != 2 {
		t.Fatalf("top BL = %d, want 2", top.BottomLevel)
	}
}

func TestMaxLiveBLDropsOnCompletion(t *testing.T) {
	g, ready := collectReady()
	for i := 0; i < 4; i++ {
		g.Submit(mkTask(i, []Token{1}, []Token{1}))
	}
	if g.MaxLiveBL() != 3 {
		t.Fatalf("MaxLiveBL = %d, want 3", g.MaxLiveBL())
	}
	// Complete the head of the chain; the max live BL must drop.
	head := (*ready)[0]
	*ready = (*ready)[1:]
	g.Start(head)
	g.Complete(head)
	if g.MaxLiveBL() != 2 {
		t.Fatalf("MaxLiveBL after completing head = %d, want 2", g.MaxLiveBL())
	}
}

func TestVisitedCount(t *testing.T) {
	g, _ := collectReady()
	if v := g.Submit(mkTask(0, nil, []Token{1})); v != 1 {
		t.Fatalf("independent task visited %d, want 1", v)
	}
	// Chain: each new tail forces BL propagation up the whole chain.
	g.Submit(mkTask(1, []Token{1}, []Token{1}))
	v := g.Submit(mkTask(2, []Token{1}, []Token{1}))
	if v < 3 {
		t.Fatalf("chain tail visited %d nodes, want >= 3 (propagation)", v)
	}
}

// TestVisitedPrunesDoneAncestors: once the head of a chain completes, a
// new tail's submission must not re-walk the dead suffix above it.
func TestVisitedPrunesDoneAncestors(t *testing.T) {
	g, ready := collectReady()
	chain := make([]*Task, 5)
	for i := range chain {
		chain[i] = mkTask(i, []Token{1}, []Token{1})
		g.Submit(chain[i])
	}
	// Complete the three oldest chain links.
	for i := 0; i < 3; i++ {
		head := (*ready)[0]
		*ready = (*ready)[1:]
		g.Start(head)
		g.Complete(head)
	}
	// The new tail depends on task 4 (live); the only live ancestor above
	// task 4 is task 3, so the walk examines exactly: the tail's pred
	// edge (t4), then t4's pred edge (t3), then t3's edges to Done tasks
	// — pruned. visited = 1 (self) + 2.
	v := g.Submit(mkTask(5, []Token{1}, []Token{1}))
	if v != 3 {
		t.Fatalf("tail after 3 completions visited %d, want 3 (Done suffix pruned)", v)
	}
	if chain[3].BottomLevel != 2 || chain[4].BottomLevel != 1 {
		t.Fatalf("live BLs = [%d %d], want [2 1]", chain[3].BottomLevel, chain[4].BottomLevel)
	}
}

// TestBottomLevelMatchesRecompute cross-checks the memoized incremental
// walk against a from-scratch recomputation over random DAGs with random
// interleaved completions.
func TestBottomLevelMatchesRecompute(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		g, ready := collectReady()
		var all []*Task
		for i := 0; i < 60; i++ {
			// Each task reads and writes a couple of random tokens out of
			// a small pool, building dense shared structure.
			ins := []Token{Token(rng.Intn(6))}
			outs := []Token{Token(rng.Intn(6))}
			task := mkTask(i, ins, outs)
			all = append(all, task)
			g.Submit(task)
			// Occasionally run a ready task to completion, creating Done
			// suffixes mid-stream.
			if rng.Bool(0.4) && len(*ready) > 0 {
				head := (*ready)[0]
				*ready = (*ready)[1:]
				g.Start(head)
				g.Complete(head)
			}

			// Recompute live bottom levels from scratch: longest path to
			// a leaf counting only edges walked during submissions.
			want := make(map[*Task]int64)
			var bl func(n *Task) int64
			bl = func(n *Task) int64 {
				if v, ok := want[n]; ok {
					return v
				}
				var m int64
				for _, s := range n.succs {
					if v := bl(s) + 1; v > m {
						m = v
					}
				}
				want[n] = m
				return m
			}
			var wantMax int64
			for _, task := range all {
				if task.State() == Done {
					continue
				}
				v := bl(task)
				if v != task.BottomLevel {
					t.Fatalf("trial %d task %d: incremental BL %d, recomputed %d",
						trial, task.ID, task.BottomLevel, v)
				}
				if v > wantMax {
					wantMax = v
				}
			}
			if g.MaxLiveBL() != wantMax {
				t.Fatalf("trial %d: MaxLiveBL %d, recomputed %d", trial, g.MaxLiveBL(), wantMax)
			}
		}
	}
}

func TestReadyOrderDeterministic(t *testing.T) {
	g, ready := collectReady()
	w := mkTask(0, nil, []Token{1})
	g.Submit(w)
	succs := make([]*Task, 5)
	for i := range succs {
		succs[i] = mkTask(i+1, []Token{1}, nil)
		g.Submit(succs[i])
	}
	g.Start(w)
	g.Complete(w)
	got := (*ready)[1:] // skip w itself
	for i, task := range got {
		if task != succs[i] {
			t.Fatalf("release order differs at %d", i)
		}
	}
}

func TestCountsAndAllDone(t *testing.T) {
	g, ready := collectReady()
	for i := 0; i < 10; i++ {
		g.Submit(mkTask(i, []Token{1}, []Token{1}))
	}
	if g.Submitted() != 10 || g.Completed() != 0 || g.Live() != 10 || g.AllDone() {
		t.Fatal("counters wrong after submit")
	}
	order := runAll(g, ready)
	if len(order) != 10 || !g.AllDone() || g.Live() != 0 {
		t.Fatalf("after run: order=%d alldone=%v", len(order), g.AllDone())
	}
	if g.MaxLiveBL() != 0 {
		t.Fatalf("MaxLiveBL after drain = %d", g.MaxLiveBL())
	}
}

func TestResubmitPanics(t *testing.T) {
	g, _ := collectReady()
	task := mkTask(0, nil, nil)
	g.Submit(task)
	defer func() {
		if recover() == nil {
			t.Fatal("resubmit did not panic")
		}
	}()
	g.Submit(task)
}

func TestStartCompleteStateChecks(t *testing.T) {
	g, _ := collectReady()
	task := mkTask(0, nil, nil)
	g.Submit(task)
	g.Start(task)
	func() {
		defer func() { recover() }()
		g.Start(task)
		t.Fatal("double Start did not panic")
	}()
	g.Complete(task)
	defer func() {
		if recover() == nil {
			t.Fatal("double Complete did not panic")
		}
	}()
	g.Complete(task)
}

func TestTaskDuration(t *testing.T) {
	task := &Task{CPUCycles: 2000, MemTime: sim.Microsecond}
	if d := task.Duration(2 * sim.Gigahertz); d != 2*sim.Microsecond {
		t.Fatalf("Duration@2GHz = %v, want 2µs", d)
	}
	if d := task.Duration(1 * sim.Gigahertz); d != 3*sim.Microsecond {
		t.Fatalf("Duration@1GHz = %v, want 3µs", d)
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := collectReady()
	a := mkTask(0, nil, []Token{1})
	b := mkTask(1, []Token{1}, nil)
	b.Critical = true
	g.Submit(a)
	g.Submit(b)
	var sb strings.Builder
	if err := WriteDOT(&sb, []*Task{a, b}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph tdg", "t0 -> t1", "shape=box", "shape=ellipse"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// buildRandom constructs a random program over nTokens data and returns
// its tasks after submission.
func buildRandom(g *Graph, rng *xrand.Source, n, nTokens int) []*Task {
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		var ins, outs []Token
		for k := 0; k < rng.Intn(3); k++ {
			ins = append(ins, Token(rng.Intn(nTokens)))
		}
		for k := 0; k < rng.Intn(2); k++ {
			outs = append(outs, Token(rng.Intn(nTokens)))
		}
		tasks[i] = mkTask(i, ins, outs)
		g.Submit(tasks[i])
	}
	return tasks
}

// Property: random programs always drain (no deadlock), complete exactly
// once, in an order consistent with the edges, and the graph is acyclic.
func TestRandomProgramsDrainInDependenceOrder(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g, ready := collectReady()
		tasks := buildRandom(g, rng, 50+rng.Intn(100), 1+rng.Intn(8))
		CheckAcyclic(tasks)
		pos := make(map[*Task]int)
		order := runAll(g, ready)
		if len(order) != len(tasks) || !g.AllDone() {
			return false
		}
		for i, task := range order {
			pos[task] = i
		}
		for _, task := range tasks {
			for _, s := range task.Succs() {
				if pos[s] <= pos[task] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a task's bottom level always exceeds each successor's by at
// least one, and MaxLiveBL matches the true maximum over live tasks.
func TestBottomLevelInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g, ready := collectReady()
		tasks := buildRandom(g, rng, 80, 1+rng.Intn(6))
		check := func() bool {
			var max int64
			for _, task := range tasks {
				if task.State() == Done {
					continue
				}
				if task.BottomLevel > max {
					max = task.BottomLevel
				}
				for _, s := range task.Succs() {
					if task.BottomLevel < s.BottomLevel+1 {
						return false
					}
				}
			}
			return g.MaxLiveBL() == max
		}
		if !check() {
			return false
		}
		// Drain while re-checking periodically.
		step := 0
		for len(*ready) > 0 {
			task := (*ready)[0]
			*ready = (*ready)[1:]
			g.Start(task)
			g.Complete(task)
			if step%7 == 0 && !check() {
				return false
			}
			step++
		}
		return g.AllDone()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredTokensCreateNoEdges: once a job's tokens are retired the
// graph holds no entry for them, so a later access resolves no
// dependence and the retired tasks are unreachable from the graph.
func TestRetiredTokensCreateNoEdges(t *testing.T) {
	g, ready := collectReady()
	w := mkTask(0, nil, []Token{1, 2})
	r := mkTask(1, []Token{1}, []Token{3})
	g.Submit(w)
	g.Submit(r)
	runAll(g, ready)
	g.Retire([]Token{1, 2, 3, 1}) // duplicates are allowed
	if len(g.writers) != 0 || len(g.readers) != 0 {
		t.Fatalf("retired tokens still mapped: %d writers, %d readers", len(g.writers), len(g.readers))
	}
	for _, tok := range []Token{1, 2, 3} {
		n := mkTask(2+int(tok), []Token{tok}, []Token{tok})
		g.Submit(n)
		if len(n.Preds()) != 0 || n.State() != Ready {
			t.Fatalf("access to retired token %d: preds %v, state %v", tok, n.Preds(), n.State())
		}
	}
	if len(w.Succs()) != 1 || len(r.Succs()) != 0 {
		t.Fatalf("retired tasks gained successors: writer %v, reader %v", w.Succs(), r.Succs())
	}
}

func TestRetireLiveTokenPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		task *Task
	}{
		{"writer", mkTask(0, nil, []Token{1})},
		{"reader", mkTask(0, []Token{1}, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := collectReady()
			g.Submit(tc.task)
			defer func() {
				if recover() == nil {
					t.Fatal("Retire of a token with a live accessor did not panic")
				}
			}()
			g.Retire([]Token{1})
		})
	}
}
