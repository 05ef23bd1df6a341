package tdg

import (
	"math"
	"slices"
)

// DAG is a program's dependence structure, resolved once before any run:
// for every task, in program order, its distinct predecessors and its
// successors as index lists into the program's task sequence. Both lists
// are stored in CSR form (one offset array, one flat index array).
//
// Predecessors appear in the order the RAW/WAR/WAW rules discover them;
// successors appear in program order. Every edge points from an earlier
// task to a later one, so a DAG is acyclic by construction.
//
// A DAG is immutable once built and safe to share between any number of
// concurrent runs; each run instantiates its own tasks from it (see
// Instance).
type DAG struct {
	predOff, preds []int32
	succOff, succs []int32
}

// Len returns the number of tasks.
func (d *DAG) Len() int { return len(d.predOff) - 1 }

// Preds returns task i's predecessors. The slice is shared; callers must
// not modify it.
func (d *DAG) Preds(i int) []int32 {
	lo, hi := d.predOff[i], d.predOff[i+1]
	return d.preds[lo:hi:hi]
}

// Succs returns task i's successors, in program order. The slice is
// shared; callers must not modify it.
func (d *DAG) Succs(i int) []int32 {
	lo, hi := d.succOff[i], d.succOff[i+1]
	return d.succs[lo:hi:hi]
}

// Resolver resolves a program's data accesses into its DAG exactly as
// OmpSs/OpenMP 4.0 do, task by task in program order:
//
//   - an `in` on a datum depends on the datum's last writer (RAW);
//   - an `out` on a datum depends on the last writer (WAW) and on every
//     reader since that write (WAR), then becomes the new last writer.
//
// A predecessor reached through several data is recorded once. Feed the
// tasks with Add, then take the result with DAG, which also resets the
// Resolver for the next program. The zero Resolver is ready to use; one
// Resolver reused across programs keeps its scratch space, which is
// released instead of kept whenever a program made it grow past
// maxRetainedScratch entries.
type Resolver struct {
	slot   map[Token]int32 // datum -> dense slot index
	writer []int32         // per slot: last writer, -1 if none
	rhead  []int32         // per slot: first reader since the last write, -1 if none
	rtail  []int32         // per slot: last reader since the last write
	rnode  []readerNode    // reader-list pool
	slots  []int32         // the current task's access slots, ins then outs
	mark   []int32         // per task: 1 + the last task that recorded it as predecessor
	ends   []int32         // per task: end of its predecessors in preds
	preds  []int32
}

// readerNode links one reader into its datum's list of readers since the
// last write.
type readerNode struct{ task, next int32 }

// maxRetainedScratch bounds the scratch a reused Resolver keeps between
// programs, in entries of its largest table.
const maxRetainedScratch = 1 << 16

// Grow hints that the program about to be added makes about n data
// accesses, so the Resolver can size its tables once instead of growing
// them access by access.
func (r *Resolver) Grow(n int) {
	if r.slot == nil {
		r.slot = make(map[Token]int32, n)
	}
	r.writer = slices.Grow(r.writer, n)
	r.rhead = slices.Grow(r.rhead, n)
	r.rtail = slices.Grow(r.rtail, n)
	r.rnode = slices.Grow(r.rnode, n)
}

// Add appends the next task in program order, with its input and output
// data. A datum in both lists is an inout access.
func (r *Resolver) Add(ins, outs []Token) {
	if len(r.ends) == math.MaxInt32 {
		panic("tdg: more than MaxInt32 tasks in one DAG")
	}
	if r.slot == nil {
		r.slot = make(map[Token]int32)
	}
	i := int32(len(r.ends))
	stamp := i + 1
	r.mark = append(r.mark, 0)
	r.slots = r.slots[:0]
	for _, d := range ins {
		r.slots = append(r.slots, r.slotOf(d))
	}
	for _, d := range outs {
		r.slots = append(r.slots, r.slotOf(d))
	}
	in, out := r.slots[:len(ins)], r.slots[len(ins):]

	for _, s := range in {
		r.edge(r.writer[s], stamp)
	}
	for _, s := range out {
		r.edge(r.writer[s], stamp)
		for n := r.rhead[s]; n >= 0; n = r.rnode[n].next {
			r.edge(r.rnode[n].task, stamp)
		}
	}
	// Register the accesses: readers accumulate until the next writer.
	for _, s := range in {
		n := int32(len(r.rnode))
		r.rnode = append(r.rnode, readerNode{task: i, next: -1})
		if r.rhead[s] < 0 {
			r.rhead[s] = n
		} else {
			r.rnode[r.rtail[s]].next = n
		}
		r.rtail[s] = n
	}
	for _, s := range out {
		r.writer[s] = i
		r.rhead[s] = -1
	}
	if len(r.preds) > math.MaxInt32 {
		panic("tdg: more than MaxInt32 edges in one DAG")
	}
	r.ends = append(r.ends, int32(len(r.preds)))
}

// slotOf returns d's slot, allocating an empty one on first sight.
func (r *Resolver) slotOf(d Token) int32 {
	s, ok := r.slot[d]
	if !ok {
		s = int32(len(r.writer))
		r.slot[d] = s
		r.writer = append(r.writer, -1)
		r.rhead = append(r.rhead, -1)
		r.rtail = append(r.rtail, -1)
	}
	return s
}

// edge records p as a predecessor of the task being added (whose mark
// stamp is stamp), once.
func (r *Resolver) edge(p, stamp int32) {
	if p < 0 || r.mark[p] == stamp {
		return
	}
	r.mark[p] = stamp
	r.preds = append(r.preds, p)
}

// DAG returns the DAG of every task added since the last call and resets
// the Resolver. The DAG's four arrays share one exactly sized allocation.
func (r *Resolver) DAG() *DAG {
	d := new(DAG)
	r.Fill(d)
	return d
}

// Fill is DAG writing into d, for a caller that holds its DAG by value.
func (r *Resolver) Fill(d *DAG) {
	n, e := len(r.ends), len(r.preds)
	buf := make([]int32, 2*(n+1)+2*e)
	*d = DAG{
		predOff: buf[: n+1 : n+1],
		preds:   buf[n+1 : n+1+e : n+1+e],
		succOff: buf[n+1+e : 2*(n+1)+e : 2*(n+1)+e],
		succs:   buf[2*(n+1)+e:],
	}
	copy(d.predOff[1:], r.ends)
	copy(d.preds, r.preds)
	// Successor lists: count, prefix-sum, then fill in program order.
	for _, p := range d.preds {
		d.succOff[p+1]++
	}
	for i := 1; i <= n; i++ {
		d.succOff[i] += d.succOff[i-1]
	}
	next := r.mark[:n] // reused as each list's fill cursor
	copy(next, d.succOff[:n])
	for i := 0; i < n; i++ {
		for _, p := range d.Preds(i) {
			d.succs[next[p]] = int32(i)
			next[p]++
		}
	}
	r.reset()
}

// reset clears the per-program state, dropping scratch that grew past
// maxRetainedScratch.
func (r *Resolver) reset() {
	if cap(r.writer) > maxRetainedScratch || cap(r.rnode) > maxRetainedScratch ||
		cap(r.ends) > maxRetainedScratch || cap(r.preds) > maxRetainedScratch {
		*r = Resolver{}
		return
	}
	clear(r.slot)
	r.writer, r.rhead, r.rtail = r.writer[:0], r.rhead[:0], r.rtail[:0]
	r.rnode, r.mark, r.ends, r.preds = r.rnode[:0], r.mark[:0], r.ends[:0], r.preds[:0]
}

// Instance is one execution of a DAG: a slab holding one Task per DAG
// node, handed out in program order. Tasks are addressed by index, so
// *Task pointers into the slab stay valid for the instance's lifetime,
// and two instances of one DAG share no task and no edge. The zero
// Instance is unusable until Init.
type Instance struct {
	dag       *DAG
	tasks     []Task
	submitted int32 // tasks[:submitted] have entered a Graph
	// Owner is free for the instance's user to point at whatever the
	// instance belongs to (an open-system runtime's job), so a task
	// leads back to it through Task.Instance.
	Owner any
}

// Init binds the instance to d and allocates its task slab.
func (in *Instance) Init(d *DAG) {
	in.dag = d
	in.tasks = make([]Task, d.Len())
	in.submitted = 0
	for i := range in.tasks {
		in.tasks[i].inst = in
		in.tasks[i].node = int32(i)
	}
}

// Len returns the number of tasks in the instance.
func (in *Instance) Len() int { return len(in.tasks) }

// Task returns task i (program order).
func (in *Instance) Task(i int) *Task { return &in.tasks[i] }

// Next returns the next task to submit, or nil once every task has been
// submitted. Fill its work fields, then pass it to Graph.Submit.
func (in *Instance) Next() *Task {
	if int(in.submitted) == len(in.tasks) {
		return nil
	}
	return &in.tasks[in.submitted]
}

// tasksAt returns pointers to the tasks at the given indices.
func (in *Instance) tasksAt(idx []int32) []*Task {
	ts := make([]*Task, len(idx))
	for i, j := range idx {
		ts[i] = &in.tasks[j]
	}
	return ts
}
