package tdg

import (
	"fmt"
	"slices"
	"testing"
)

// refGraph is the reference dependence resolver: the per-submission,
// map-based resolution the compiled DAG replaced, kept verbatim as the
// oracle FuzzCompileVsReference checks the compiled path against. Every
// submission looks its data up in last-writer and reader maps, appends
// edges to per-task lists, and walks bottom levels over those lists.
type refGraph struct {
	onReady func(*refTask)

	writers map[Token]*refTask
	readers map[Token][]*refTask

	blCount []int32
	maxBL   int64
	epoch   uint64
	stack   []*refTask
}

type refTask struct {
	id          int
	ins, outs   []Token
	state       State
	preds       []*refTask
	succs       []*refTask
	nwait       int
	mark        uint64
	bottomLevel int64
}

func newRefGraph(onReady func(*refTask)) *refGraph {
	return &refGraph{
		onReady: onReady,
		writers: make(map[Token]*refTask),
		readers: make(map[Token][]*refTask),
	}
}

func (g *refGraph) submit(t *refTask) (visited int) {
	g.epoch++
	for _, d := range t.ins {
		g.addEdge(t, g.writers[d])
	}
	for _, d := range t.outs {
		g.addEdge(t, g.writers[d])
		for _, r := range g.readers[d] {
			g.addEdge(t, r)
		}
	}
	for _, d := range t.ins {
		g.readers[d] = append(g.readers[d], t)
	}
	for _, d := range t.outs {
		g.writers[d] = t
		g.readers[d] = g.readers[d][:0]
	}
	t.bottomLevel = 0
	g.incBL(0)
	visited = 1 + g.raiseBL(t)
	if t.nwait == 0 {
		g.makeReady(t)
	}
	return visited
}

func (g *refGraph) addEdge(t, pred *refTask) {
	if pred == nil || pred == t || pred.state == Done || pred.mark == g.epoch {
		return
	}
	pred.mark = g.epoch
	t.preds = append(t.preds, pred)
	pred.succs = append(pred.succs, t)
	t.nwait++
}

func (g *refGraph) raiseBL(t *refTask) int {
	visited := 0
	g.epoch++
	onStack := g.epoch
	stack := append(g.stack[:0], t)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.mark = 0
		need := n.bottomLevel + 1
		for _, p := range n.preds {
			if p.state == Done {
				continue
			}
			visited++
			if p.bottomLevel < need {
				g.decBL(p.bottomLevel)
				g.incBL(need)
				p.bottomLevel = need
				if p.mark != onStack {
					p.mark = onStack
					stack = append(stack, p)
				}
			}
		}
	}
	g.stack = stack[:0]
	return visited
}

func (g *refGraph) incBL(v int64) {
	for int64(len(g.blCount)) <= v {
		g.blCount = append(g.blCount, 0)
	}
	g.blCount[v]++
	if v > g.maxBL {
		g.maxBL = v
	}
}

func (g *refGraph) decBL(v int64) {
	g.blCount[v]--
	if g.blCount[v] == 0 && v == g.maxBL {
		for g.maxBL > 0 && g.blCount[g.maxBL] == 0 {
			g.maxBL--
		}
	}
}

func (g *refGraph) makeReady(t *refTask) {
	t.state = Ready
	if g.onReady != nil {
		g.onReady(t)
	}
}

func (g *refGraph) complete(t *refTask) int {
	t.state = Done
	g.decBL(t.bottomLevel)
	released := 0
	for _, s := range t.succs {
		s.nwait--
		if s.nwait == 0 {
			released++
			g.makeReady(s)
		}
	}
	return released
}

// access is one task's data accesses, in program order.
type access struct{ ins, outs []Token }

// fuzzProgram decodes fuzz bytes into a program of token accesses and an
// interleaving of submissions and completions. Each task takes one
// header byte (0–2 inputs, 0–2 outputs) and one byte per token (a pool
// of 8 keeps the structure dense); each schedule byte either submits
// the next task or completes the ready task it indexes.
func fuzzProgram(data []byte) (prog []access, schedule []byte) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	for len(prog) < 64 {
		h, ok := next()
		if !ok || h == 0xff {
			break
		}
		var a access
		for k := 0; k < int(h%3); k++ {
			b, _ := next()
			a.ins = append(a.ins, Token(b%8))
		}
		for k := 0; k < int(h/3%3); k++ {
			b, _ := next()
			a.outs = append(a.outs, Token(b%8))
		}
		prog = append(prog, a)
	}
	return prog, data
}

// compileAccesses resolves a program's accesses into a fresh instance
// through the compiled path.
func compileAccesses(prog []access) *Instance {
	var r Resolver
	for _, a := range prog {
		r.Add(a.ins, a.outs)
	}
	in := new(Instance)
	in.Init(r.DAG())
	for i := range in.tasks {
		in.tasks[i].ID = i
	}
	return in
}

// checkAgainstReference drives one program through the compiled path and
// the reference resolver in lockstep and reports the first divergence in
// ready order, predecessor order, nwait, bottom levels, visited counts,
// MaxLiveBL or successor lists.
func checkAgainstReference(prog []access, schedule []byte) error {
	in := compileAccesses(prog)
	var ready []*Task
	g := New(func(t *Task) { ready = append(ready, t) })

	var refReady []*refTask
	rg := newRefGraph(func(t *refTask) { refReady = append(refReady, t) })
	ref := make([]*refTask, len(prog))
	for i, a := range prog {
		ref[i] = &refTask{id: i, ins: a.ins, outs: a.outs}
	}

	compare := func(step string) error {
		if len(ready) != len(refReady) {
			return fmt.Errorf("%s: %d ready, reference %d", step, len(ready), len(refReady))
		}
		for i := range ready {
			if ready[i].ID != refReady[i].id {
				return fmt.Errorf("%s: ready[%d] = task %d, reference %d", step, i, ready[i].ID, refReady[i].id)
			}
		}
		for i := 0; i < int(in.submitted); i++ {
			t, r := in.Task(i), ref[i]
			if t.state != r.state || t.nwait != r.nwait || t.BottomLevel != r.bottomLevel {
				return fmt.Errorf("%s: task %d state/nwait/BL %v/%d/%d, reference %v/%d/%d",
					step, i, t.state, t.nwait, t.BottomLevel, r.state, r.nwait, r.bottomLevel)
			}
			if got, want := ids(t.Succs()), refIDs(r.succs); !slices.Equal(got, want) {
				return fmt.Errorf("%s: task %d succs %v, reference %v", step, i, got, want)
			}
		}
		if g.MaxLiveBL() != rg.maxBL {
			return fmt.Errorf("%s: MaxLiveBL %d, reference %d", step, g.MaxLiveBL(), rg.maxBL)
		}
		return nil
	}

	pick := func(b byte) (*Task, *refTask) {
		i := int(b) % len(ready)
		t, r := ready[i], refReady[i]
		ready = append(ready[:i], ready[i+1:]...)
		refReady = append(refReady[:i], refReady[i+1:]...)
		return t, r
	}
	complete := func(b byte) error {
		t, r := pick(b)
		g.Start(t)
		if got, want := g.Complete(t), rg.complete(r); got != want {
			return fmt.Errorf("complete %d released %d, reference %d", t.ID, got, want)
		}
		return compare(fmt.Sprintf("after completing %d", t.ID))
	}
	submit := func() error {
		i := int(in.submitted)
		if got, want := g.Submit(in.Next()), rg.submit(ref[i]); got != want {
			return fmt.Errorf("submit %d visited %d, reference %d", i, got, want)
		}
		// The reference records only the predecessors still live at
		// submission; the compiled ones, so filtered, must match them
		// in order, since the bottom-level walk follows that order.
		var live []int
		for _, p := range in.Task(i).Preds() {
			if p.state != Done {
				live = append(live, p.ID)
			}
		}
		if want := refIDs(ref[i].preds); !slices.Equal(live, want) {
			return fmt.Errorf("task %d waits on %v, reference %v", i, live, want)
		}
		return compare(fmt.Sprintf("after submitting %d", i))
	}

	for _, b := range schedule {
		var err error
		switch {
		case b&1 == 0 && in.Next() != nil:
			err = submit()
		case len(ready) > 0:
			err = complete(b >> 1)
		}
		if err != nil {
			return err
		}
	}
	// Drain: submit the rest, then complete in ready order.
	for in.Next() != nil {
		if err := submit(); err != nil {
			return err
		}
	}
	for len(ready) > 0 {
		if err := complete(0); err != nil {
			return err
		}
	}
	if !g.AllDone() || g.Completed() != len(prog) {
		return fmt.Errorf("drained %d of %d tasks", g.Completed(), len(prog))
	}
	return nil
}

func ids(ts []*Task) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func refIDs(ts []*refTask) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.id
	}
	return out
}

// FuzzCompileVsReference: for random token-access programs and random
// interleavings of submissions and completions, the compiled DAG path and
// the reference map-based resolver agree on ready order, the order of
// the predecessors each task waits on, nwait, bottom levels, Submit's
// visited counts, MaxLiveBL and every task's Succs.
func FuzzCompileVsReference(f *testing.F) {
	f.Add([]byte{}, []byte{})
	// A chain, a WAR fan-in and a diamond, with mixed schedules.
	f.Add([]byte{4, 1, 1, 4, 1, 1, 4, 1, 1}, []byte{0, 0, 1, 0, 1, 1})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 3, 1}, []byte{0, 0, 0, 3, 0, 5, 0})
	f.Add([]byte{3, 1, 4, 1, 2, 4, 1, 3, 2, 2, 3, 0xff}, []byte{0, 1, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, progBytes, schedule []byte) {
		prog, _ := fuzzProgram(progBytes)
		if err := checkAgainstReference(prog, schedule); err != nil {
			t.Fatal(err)
		}
	})
}
