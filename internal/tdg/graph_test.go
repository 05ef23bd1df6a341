package tdg

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cata/internal/sim"
	"cata/internal/xrand"
)

var testType = &TaskType{Name: "t"}

// instance compiles a program of data accesses and returns a fresh
// instance of it, its tasks numbered in program order.
func instance(prog ...access) *Instance {
	in := compileAccesses(prog)
	for i := range in.tasks {
		in.tasks[i].Type = testType
		in.tasks[i].CPUCycles = 1000
	}
	return in
}

// toks is shorthand for a token list.
func toks(ts ...Token) []Token { return ts }

// submitAll submits every remaining task of the instance in order.
func submitAll(g *Graph, in *Instance) {
	for t := in.Next(); t != nil; t = in.Next() {
		g.Submit(t)
	}
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
	in := instance(access{nil, toks(1)}, access{toks(1), nil})
	w, r := in.Task(0), in.Task(1)
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
	in := instance(access{nil, toks(1)}, access{toks(1), nil}, access{toks(1), nil}, access{nil, toks(1)})
	r1, r2, w2 := in.Task(1), in.Task(2), in.Task(3)
	submitAll(g, in)
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
	in := instance(access{nil, toks(1)}, access{toks(1), nil}, access{nil, toks(1)},
		access{toks(1), nil}, access{nil, toks(1)})
	r1, w3 := in.Task(1), in.Task(4)
	submitAll(g, in)
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
	inout := access{toks(1), toks(1)}
	in := instance(inout, inout, inout)
	a, b, c := in.Task(0), in.Task(1), in.Task(2)
	submitAll(g, in)
	// Inout chains serialize: c waits only on b, b only on a.
	if a.nwait != 0 || b.nwait != 1 || c.nwait != 1 {
		t.Fatalf("inout chain nwait = %d/%d/%d, want 0/1/1", a.nwait, b.nwait, c.nwait)
	}
}

func TestEdgeDedupe(t *testing.T) {
	g, _ := collectReady()
	in := instance(access{nil, toks(1, 2, 3)}, access{toks(1, 2, 3), nil})
	w, r := in.Task(0), in.Task(1)
	submitAll(g, in)
	if r.nwait != 1 {
		t.Fatalf("nwait = %d: duplicate edges not deduped", r.nwait)
	}
	if len(w.Succs()) != 1 || len(r.Preds()) != 1 {
		t.Fatalf("writer succs = %d, reader preds = %d, want 1/1", len(w.Succs()), len(r.Preds()))
	}
}

func TestDependenceOnDoneTaskIgnored(t *testing.T) {
	g, ready := collectReady()
	in := instance(access{nil, toks(1)}, access{toks(1), nil})
	w, r := in.Task(0), in.Task(1)
	g.Submit(w)
	runAll(g, ready)
	g.Submit(r)
	if r.State() != Ready || r.nwait != 0 {
		t.Fatalf("reader of completed writer should be ready, got %v (nwait %d)", r.State(), r.nwait)
	}
	// The static edge stays in the DAG, but the writer completed before
	// the reader was submitted, so the reader never waited on it.
	if len(r.Preds()) != 1 || len(w.Succs()) != 0 {
		t.Fatalf("reader preds %d, writer released %d successors, want 1/0", len(r.Preds()), len(w.Succs()))
	}
}

func TestBottomLevelChain(t *testing.T) {
	g, _ := collectReady()
	// Chain t0 <- t1 <- t2 (via inout token), submitted in order.
	inout := access{toks(1), toks(1)}
	in := instance(inout, inout, inout)
	submitAll(g, in)
	ts := []*Task{in.Task(0), in.Task(1), in.Task(2)}
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
	in := instance(access{nil, toks(1)}, access{toks(1), toks(2)}, access{toks(1), toks(3)}, access{toks(2, 3), nil})
	top, left, right, bottom := in.Task(0), in.Task(1), in.Task(2), in.Task(3)
	submitAll(g, in)
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
	inout := access{toks(1), toks(1)}
	submitAll(g, instance(inout, inout, inout, inout))
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
	inout := access{toks(1), toks(1)}
	in := instance(access{nil, toks(1)}, inout, inout)
	if v := g.Submit(in.Task(0)); v != 1 {
		t.Fatalf("independent task visited %d, want 1", v)
	}
	// Chain: each new tail forces BL propagation up the whole chain.
	g.Submit(in.Task(1))
	v := g.Submit(in.Task(2))
	if v < 3 {
		t.Fatalf("chain tail visited %d nodes, want >= 3 (propagation)", v)
	}
}

// TestVisitedPrunesDoneAncestors: once the head of a chain completes, a
// new tail's submission must not re-walk the dead suffix above it.
func TestVisitedPrunesDoneAncestors(t *testing.T) {
	g, ready := collectReady()
	inout := access{toks(1), toks(1)}
	in := instance(inout, inout, inout, inout, inout, inout)
	chain := make([]*Task, 5)
	for i := range chain {
		chain[i] = in.Task(i)
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
	v := g.Submit(in.Task(5))
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
		// Each task reads and writes a couple of random tokens out of a
		// small pool, building dense shared structure.
		prog := make([]access, 60)
		for i := range prog {
			prog[i] = access{toks(Token(rng.Intn(6))), toks(Token(rng.Intn(6)))}
		}
		in := instance(prog...)
		var all []*Task
		for i := range prog {
			task := in.Task(i)
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
				for _, s := range n.Succs() {
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
	rd := access{toks(1), nil}
	in := instance(access{nil, toks(1)}, rd, rd, rd, rd, rd)
	w := in.Task(0)
	g.Submit(w)
	succs := make([]*Task, 5)
	for i := range succs {
		succs[i] = in.Task(i + 1)
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
	prog := make([]access, 10)
	for i := range prog {
		prog[i] = access{toks(1), toks(1)}
	}
	submitAll(g, instance(prog...))
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
	in := instance(access{}, access{})
	task := in.Task(0)
	g.Submit(task)
	mustPanic(t, "resubmit", func() { g.Submit(task) })
	fresh := instance(access{}, access{})
	mustPanic(t, "out-of-order submit", func() { g.Submit(fresh.Task(1)) })
	mustPanic(t, "submit of a task outside any instance", func() { g.Submit(&Task{}) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestStartCompleteStateChecks(t *testing.T) {
	g, _ := collectReady()
	task := instance(access{}).Task(0)
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
	in := instance(access{nil, toks(1)}, access{toks(1), nil})
	a, b := in.Task(0), in.Task(1)
	b.Critical = true
	submitAll(g, in)
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

// randomProgram draws n tasks' accesses over nTokens data.
func randomProgram(rng *xrand.Source, n, nTokens int) []access {
	prog := make([]access, n)
	for i := range prog {
		for k := 0; k < rng.Intn(3); k++ {
			prog[i].ins = append(prog[i].ins, Token(rng.Intn(nTokens)))
		}
		for k := 0; k < rng.Intn(2); k++ {
			prog[i].outs = append(prog[i].outs, Token(rng.Intn(nTokens)))
		}
	}
	return prog
}

// buildRandom compiles a random program over nTokens data and returns
// its tasks after submission.
func buildRandom(g *Graph, rng *xrand.Source, n, nTokens int) []*Task {
	in := instance(randomProgram(rng, n, nTokens)...)
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = in.Task(i)
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
		// Acyclic by construction: every edge points to a later task.
		for _, task := range tasks {
			for _, p := range task.Preds() {
				if p.ID >= task.ID {
					return false
				}
			}
		}
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

// TestJobsFromOneTemplateShareNoEdges: two instances of one DAG — two
// jobs built from the same template, alive in one graph — share no task
// and no edge: each task waits only on its own instance's predecessors,
// and completing one job's tasks releases nothing in the other.
func TestJobsFromOneTemplateShareNoEdges(t *testing.T) {
	var r Resolver
	r.Add(nil, toks(1))
	r.Add(toks(1), toks(2))
	r.Add(toks(2), nil)
	dag := r.DAG()
	var a, b Instance
	a.Init(dag)
	b.Init(dag)

	g, ready := collectReady()
	submitAll(g, &a)
	submitAll(g, &b)
	for i := 0; i < dag.Len(); i++ {
		ta, tb := a.Task(i), b.Task(i)
		if ta == tb {
			t.Fatalf("task %d shared between instances", i)
		}
		for _, p := range ta.Preds() {
			if p.inst != &a {
				t.Fatalf("job a task %d has a predecessor in another instance", i)
			}
		}
		for _, p := range tb.Preds() {
			if p.inst != &b {
				t.Fatalf("job b task %d has a predecessor in another instance", i)
			}
		}
	}
	if len(*ready) != 2 || (*ready)[0] != a.Task(0) || (*ready)[1] != b.Task(0) {
		t.Fatalf("ready = %v, want each job's head", *ready)
	}
	// Drain job a alone: job b's waiting tasks must not move.
	*ready = (*ready)[:1]
	runAll(g, ready)
	for i := 0; i < dag.Len(); i++ {
		if a.Task(i).State() != Done {
			t.Fatalf("job a task %d is %v after draining a", i, a.Task(i).State())
		}
		if got := len(a.Task(i).Succs()); got != len(dag.Succs(i)) {
			t.Fatalf("job a task %d released %d successors, want %d", i, got, len(dag.Succs(i)))
		}
	}
	if b.Task(1).State() != Waiting || b.Task(1).nwait != 1 || b.Task(2).nwait != 1 {
		t.Fatalf("job b moved when job a completed: %v nwait %d/%d", b.Task(1).State(), b.Task(1).nwait, b.Task(2).nwait)
	}
	*ready = append((*ready)[:0], b.Task(0))
	runAll(g, ready)
	if !g.AllDone() || g.Completed() != 2*dag.Len() {
		t.Fatalf("graph not drained: %d of %d", g.Completed(), 2*dag.Len())
	}
}

// TestResolverReuseIsBounded: a Resolver reused across programs resets
// between them, producing the same DAG as a fresh one, and drops scratch
// that grew past maxRetainedScratch instead of keeping it.
func TestResolverReuseIsBounded(t *testing.T) {
	var reused Resolver
	for round := 0; round < 3; round++ {
		rng := xrand.New(uint64(round))
		prog := randomProgram(rng, 200, 7)
		var fresh Resolver
		for _, a := range prog {
			reused.Add(a.ins, a.outs)
			fresh.Add(a.ins, a.outs)
		}
		got, want := reused.DAG(), fresh.DAG()
		if !slices.Equal(got.preds, want.preds) || !slices.Equal(got.predOff, want.predOff) ||
			!slices.Equal(got.succs, want.succs) || !slices.Equal(got.succOff, want.succOff) {
			t.Fatalf("round %d: reused resolver's DAG differs from a fresh one", round)
		}
	}
	if cap(reused.writer) == 0 {
		t.Fatal("small programs should keep their scratch for reuse")
	}
	for i := 0; i <= maxRetainedScratch; i++ {
		reused.Add(nil, toks(Token(i)))
	}
	if d := reused.DAG(); d.Len() != maxRetainedScratch+1 || len(d.preds) != 0 {
		t.Fatalf("wide program: %d tasks, %d edges", d.Len(), len(d.preds))
	}
	if reused.slot != nil || cap(reused.writer) != 0 || cap(reused.ends) != 0 {
		t.Fatal("scratch beyond maxRetainedScratch was kept")
	}
}

// TestCompileMatchesReference runs the reference oracle over seeded
// random programs and schedules, so plain `go test` covers more than the
// fuzz target's seed corpus.
func TestCompileMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := xrand.New(seed)
		prog := randomProgram(rng, 1+rng.Intn(60), 1+rng.Intn(8))
		schedule := make([]byte, rng.Intn(3*len(prog)))
		for i := range schedule {
			schedule[i] = byte(rng.Intn(256))
		}
		if err := checkAgainstReference(prog, schedule); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSteadyStateZeroAllocs pins the compiled path's per-task cost:
// once the graph's bookkeeping has grown to the program's shape,
// submitting, starting and completing a task allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const n = 4000
	prog := make([]access, n)
	for j := range prog {
		prog[j] = access{toks(Token(j % 8)), toks(Token((j + 3) % 8))}
	}
	in := instance(prog...)
	ready := make([]*Task, 0, n)
	g := New(func(t *Task) { ready = append(ready, t) })
	head := 0
	step := func() {
		g.Submit(in.Next())
		if head < len(ready) {
			g.Start(ready[head])
			g.Complete(ready[head])
			head++
		}
	}
	for i := 0; i < n/4; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(n/2, step); allocs != 0 {
		t.Fatalf("submit+start+complete allocated %v times per task, want 0", allocs)
	}
	if head == 0 {
		t.Fatal("no task completed")
	}
}
