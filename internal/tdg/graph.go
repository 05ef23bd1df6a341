package tdg

import "fmt"

// Graph is the runtime's task dependence graph. Tasks are submitted in
// program order; the graph resolves data dependences into edges exactly as
// OmpSs/OpenMP 4.0 do:
//
//   - an `in` on a datum depends on the datum's last writer (RAW);
//   - an `out` on a datum depends on the last writer (WAW) and on every
//     reader since that write (WAR), then becomes the new last writer.
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
// Graph is not safe for concurrent use; the simulation is single-threaded.
type Graph struct {
	onReady func(*Task)

	writers map[Token]*Task
	readers map[Token][]*Task

	submitted int
	completed int

	// blCount[v] = number of live (not Done) tasks with BottomLevel v,
	// used to answer MaxLiveBL exactly.
	blCount []int32
	maxBL   int64

	// epoch stamps Task.mark for allocation-free per-submission dedup
	// (dependence resolution and the raise frontier); stack is the
	// reusable raise-walk worklist.
	epoch uint64
	stack []*Task
}

// New returns an empty graph. onReady is invoked (synchronously, in
// deterministic submission order) whenever a task becomes Ready.
func New(onReady func(*Task)) *Graph {
	return &Graph{
		onReady: onReady,
		writers: make(map[Token]*Task),
		readers: make(map[Token][]*Task),
	}
}

// Submitted returns the number of tasks submitted so far.
func (g *Graph) Submitted() int { return g.submitted }

// Completed returns the number of tasks completed so far.
func (g *Graph) Completed() int { return g.completed }

// Live returns the number of submitted-but-not-completed tasks.
func (g *Graph) Live() int { return g.submitted - g.completed }

// AllDone reports whether every submitted task has completed.
func (g *Graph) AllDone() bool { return g.submitted == g.completed }

// Submit adds a task in program order, resolving its dependences. It
// returns the number of TDG nodes visited while updating bottom levels
// (>= 1), the quantity the bottom-level estimator's overhead is charged
// on. The count reflects the memoized walk: completed suffixes and
// already-frontier nodes are not re-visited. If the task has no
// unresolved dependences it becomes Ready immediately and onReady fires
// before Submit returns.
func (g *Graph) Submit(t *Task) (visited int) {
	if t.state != Waiting || t.nwait != 0 || len(t.preds) > 0 {
		panic(fmt.Sprintf("tdg: resubmission of %v", t))
	}
	g.submitted++

	// Resolve dependences. A predecessor may appear through several
	// data; dedupe (epoch-stamped marks, no per-submit allocation) so
	// nwait counts distinct tasks.
	g.epoch++
	for _, d := range t.Ins {
		g.addEdge(t, g.writers[d])
	}
	for _, d := range t.Outs {
		g.addEdge(t, g.writers[d])
		for _, r := range g.readers[d] {
			g.addEdge(t, r)
		}
	}
	// Register accesses: readers accumulate until the next writer.
	for _, d := range t.Ins {
		g.readers[d] = append(g.readers[d], t)
	}
	for _, d := range t.Outs {
		g.writers[d] = t
		g.readers[d] = g.readers[d][:0]
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

// addEdge records a dependence of t on pred, deduplicating via the
// current submission epoch.
func (g *Graph) addEdge(t, pred *Task) {
	if pred == nil || pred == t || pred.state == Done || pred.mark == g.epoch {
		return
	}
	pred.mark = g.epoch
	t.preds = append(t.preds, pred)
	pred.succs = append(pred.succs, t)
	t.nwait++
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
		for _, p := range n.preds {
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

// Complete marks a Running task Done and releases its successors; each
// successor whose last dependence this was becomes Ready (onReady fires in
// edge insertion order). It returns the number of successors released.
func (g *Graph) Complete(t *Task) int {
	if t.state != Running {
		panic(fmt.Sprintf("tdg: Complete on %v", t))
	}
	t.state = Done
	g.completed++
	g.decBL(t.BottomLevel)
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

// Retire forgets the given dependence tokens: their last-writer and
// reader entries are dropped, so a later access to one of them resolves
// no dependence, and the completed tasks those entries pointed at become
// unreachable from the graph. Every task that accessed a token must have
// completed; retiring a token with a live accessor panics, since its
// successors would silently lose that dependence. Duplicate tokens are
// allowed. The open-system runtime retires a job's private tokens when
// the job completes, which keeps a long run's graph bounded by the jobs
// in flight rather than every job ever admitted.
func (g *Graph) Retire(tokens []Token) {
	for _, d := range tokens {
		if w := g.writers[d]; w != nil && w.state != Done {
			panic(fmt.Sprintf("tdg: Retire of token %d with live writer %v", d, w))
		}
		for _, r := range g.readers[d] {
			if r.state != Done {
				panic(fmt.Sprintf("tdg: Retire of token %d with live reader %v", d, r))
			}
		}
		delete(g.writers, d)
		delete(g.readers, d)
	}
}

// CheckAcyclic walks the whole graph reachable from the given tasks and
// panics if a dependence cycle exists. Submission order makes cycles
// impossible by construction (edges always point from earlier to later
// submissions); tests call this to enforce the invariant.
func CheckAcyclic(tasks []*Task) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Task]int, len(tasks))
	var visit func(t *Task)
	visit = func(t *Task) {
		switch color[t] {
		case grey:
			panic(fmt.Sprintf("tdg: dependence cycle through %v", t))
		case black:
			return
		}
		color[t] = grey
		for _, s := range t.succs {
			visit(s)
		}
		color[t] = black
	}
	for _, t := range tasks {
		visit(t)
	}
}
