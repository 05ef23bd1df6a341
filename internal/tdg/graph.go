package tdg

import "fmt"

// Graph is the runtime's task dependence graph. Tasks enter it in program
// order from a DAG Instance, whose edges a Resolver computed once, before
// the run, from the program's data accesses (RAW/WAR/WAW, as OmpSs/OpenMP
// 4.0 resolve them). A submitted task waits on each static predecessor
// that has not completed yet; a predecessor that completed earlier (for
// example before a barrier) was never a dependence to wait for.
//
// The graph also maintains each live task's bottom level incrementally and
// reports how many nodes each submission visited, so the runtime can
// charge the dynamic criticality estimator's exploration cost (§II-B:
// "exploring the TDG every time a task is created can become costly").
//
// The bottom-level walk is memoized in two ways. Completed ancestors are
// never re-walked: a Done task can neither become critical again nor
// contribute to MaxLiveBL, and every ancestor of a Done task is itself
// Done, so the estimator caches completed suffixes and the upward
// propagation prunes there instead of re-walking them on every submission
// of a dense region. Within one submission, the walk frontier is
// deduplicated, so a shared predecessor's edges are examined once per
// raise rather than once per path reaching it. SubmitVisited counts the
// nodes the memoized walk actually examines.
//
// The graph keeps no index of tasks (no maps, no edge lists): what it
// needs lives in the tasks and their instances, so a finished instance
// becomes garbage once its owner drops it.
//
// Graph is not safe for concurrent use; the simulation is single-threaded.
type Graph struct {
	onReady func(*Task)

	submitted int
	completed int

	// blCount[v] = number of live (not Done) tasks with BottomLevel v,
	// used to answer MaxLiveBL exactly.
	blCount []int32
	maxBL   int64

	// epoch stamps Task.mark for allocation-free raise-frontier dedup;
	// stack is the reusable raise-walk worklist.
	epoch uint64
	stack []*Task
}

// New returns an empty graph. onReady is invoked (synchronously, in
// deterministic submission order) whenever a task becomes Ready.
func New(onReady func(*Task)) *Graph {
	return &Graph{onReady: onReady}
}

// Submitted returns the number of tasks submitted so far.
func (g *Graph) Submitted() int { return g.submitted }

// Completed returns the number of tasks completed so far.
func (g *Graph) Completed() int { return g.completed }

// Live returns the number of submitted-but-not-completed tasks.
func (g *Graph) Live() int { return g.submitted - g.completed }

// AllDone reports whether every submitted task has completed.
func (g *Graph) AllDone() bool { return g.submitted == g.completed }

// Submit adds the next task of its instance (Instance.Next), counting the
// predecessors it must wait for. It returns the number of TDG nodes
// visited while updating bottom levels (>= 1), the quantity the
// bottom-level estimator's overhead is charged on. The count reflects the
// memoized walk: completed suffixes and already-frontier nodes are not
// re-visited. If the task has no unfinished predecessor it becomes Ready
// immediately and onReady fires before Submit returns.
func (g *Graph) Submit(t *Task) (visited int) {
	in := t.inst
	if in == nil || t.state != Waiting || t.node != in.submitted {
		panic(fmt.Sprintf("tdg: out-of-order submission or resubmission of %v", t))
	}
	in.submitted++
	g.submitted++
	for _, p := range in.dag.Preds(int(t.node)) {
		if in.tasks[p].state != Done {
			t.nwait++
		}
	}

	// The new task is a leaf: BottomLevel 0. Its predecessors' bottom
	// levels may grow; propagate upward.
	t.BottomLevel = 0
	g.incBL(0)
	visited = 1 + g.raiseBL(t)

	if t.nwait == 0 {
		g.makeReady(t)
	}
	return visited
}

// raiseBL propagates a bottom-level increase from t to its ancestors,
// returning the number of nodes visited (excluding t itself). Completed
// ancestors are pruned — their bottom levels are dead state the memoized
// estimator never consults again — and a node already on the worklist is
// not pushed twice, so its predecessor edges are examined once with the
// highest level reached rather than once per raise.
func (g *Graph) raiseBL(t *Task) int {
	visited := 0
	g.epoch++
	onStack := g.epoch
	stack := g.stack[:0]
	stack = append(stack, t)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.mark = 0 // off the worklist; may be re-pushed by a later raise
		need := n.BottomLevel + 1
		in := n.inst
		for _, pi := range in.dag.Preds(int(n.node)) {
			p := &in.tasks[pi]
			if p.state == Done {
				continue // memoized: dead suffix, nothing live above it
			}
			visited++
			if p.BottomLevel < need {
				g.setBL(p, need)
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

// setBL moves a live task between blCount buckets. Done tasks never
// reach here: raiseBL prunes them, so their bottom levels stay frozen at
// completion and are never counted.
func (g *Graph) setBL(t *Task, v int64) {
	g.decBL(t.BottomLevel)
	g.incBL(v)
	t.BottomLevel = v
}

func (g *Graph) incBL(v int64) {
	for int64(len(g.blCount)) <= v {
		g.blCount = append(g.blCount, 0)
	}
	g.blCount[v]++
	if v > g.maxBL {
		g.maxBL = v
	}
}

func (g *Graph) decBL(v int64) {
	g.blCount[v]--
	if g.blCount[v] == 0 && v == g.maxBL {
		for g.maxBL > 0 && g.blCount[g.maxBL] == 0 {
			g.maxBL--
		}
	}
}

// MaxLiveBL returns the largest bottom level among live tasks (0 when
// empty). This is the reference the bottom-level criticality estimator
// compares against (§II-B: "tasks with the highest BL ... are considered
// critical").
func (g *Graph) MaxLiveBL() int64 { return g.maxBL }

func (g *Graph) makeReady(t *Task) {
	t.state = Ready
	if g.onReady != nil {
		g.onReady(t)
	}
}

// Start marks a Ready task Running (dispatch bookkeeping).
func (g *Graph) Start(t *Task) {
	if t.state != Ready {
		panic(fmt.Sprintf("tdg: Start on %v", t))
	}
	t.state = Running
}

// Complete marks a Running task Done and releases its successors: the
// prefix of its static successor list already submitted, each of which
// waited on it. A successor whose last dependence this was becomes Ready
// (onReady fires in program order). Successors submitted later find the
// task Done and do not wait on it. It returns the number of successors
// released.
func (g *Graph) Complete(t *Task) int {
	if t.state != Running {
		panic(fmt.Sprintf("tdg: Complete on %v", t))
	}
	t.state = Done
	g.completed++
	g.decBL(t.BottomLevel)
	in := t.inst
	limit := in.submitted
	succs := in.dag.Succs(int(t.node))
	released, k := 0, 0
	for ; k < len(succs) && succs[k] < limit; k++ {
		s := &in.tasks[succs[k]]
		s.nwait--
		if s.nwait == 0 {
			released++
			g.makeReady(s)
		}
	}
	t.nsucc = int32(k)
	return released
}
