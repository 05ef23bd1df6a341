package sched

import (
	"testing"
	"testing/quick"

	"cata/internal/tdg"
	"cata/internal/xrand"
)

type fakeInfo struct {
	fast     map[int]bool
	fastIdle bool
}

func (f *fakeInfo) IsFast(core int) bool { return f.fast[core] }
func (f *fakeInfo) AnyFastIdle() bool    { return f.fastIdle }

func critTask(id int) *tdg.Task {
	t := &tdg.Task{ID: id, Type: &tdg.TaskType{Name: "c", Criticality: 1}}
	t.Critical = true
	return t
}

func plainTask(id int) *tdg.Task {
	return &tdg.Task{ID: id, Type: &tdg.TaskType{Name: "p"}}
}

// compile resolves a program of tasks given as (ins, outs) access pairs
// and returns a fresh instance of it, with task i numbered i.
func compile(accesses ...[2][]tdg.Token) *tdg.Instance {
	var r tdg.Resolver
	for _, a := range accesses {
		r.Add(a[0], a[1])
	}
	in := new(tdg.Instance)
	in.Init(r.DAG())
	for i := 0; i < in.Len(); i++ {
		in.Task(i).ID = i
	}
	return in
}

func TestQueueFIFOOrder(t *testing.T) {
	var q Queue
	for i := 0; i < 200; i++ {
		q.Push(plainTask(i))
	}
	if q.Len() != 200 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 200; i++ {
		got := q.Pop()
		if got == nil || got.ID != i {
			t.Fatalf("Pop %d = %v", i, got)
		}
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil {
		t.Fatal("Peek on empty != nil")
	}
	q.Push(plainTask(7))
	if q.Peek().ID != 7 || q.Len() != 1 {
		t.Fatal("Peek changed queue")
	}
}

func TestQueueInterleavedCompaction(t *testing.T) {
	var q Queue
	next, want := 0, 0
	rng := xrand.New(1)
	for i := 0; i < 10000; i++ {
		if rng.Bool(0.6) {
			q.Push(plainTask(next))
			next++
		} else if got := q.Pop(); got != nil {
			if got.ID != want {
				t.Fatalf("out of order: got %d want %d", got.ID, want)
			}
			want++
		}
	}
	for got := q.Pop(); got != nil; got = q.Pop() {
		if got.ID != want {
			t.Fatalf("drain out of order: got %d want %d", got.ID, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("lost tasks: popped %d pushed %d", want, next)
	}
}

// TestQueueSteadyStateNoGrowth: a bounded standing queue must not grow
// storage with total throughput (the ring reuses its buffer).
func TestQueueSteadyStateNoGrowth(t *testing.T) {
	var q Queue
	for i := 0; i < 8; i++ {
		q.Push(plainTask(i))
	}
	want := 0
	for i := 8; i < 100000; i++ {
		q.Push(plainTask(i))
		got := q.Pop()
		if got == nil || got.ID != want {
			t.Fatalf("Pop = %v, want ID %d", got, want)
		}
		want++
	}
	if cap := len(q.buf); cap > 64 {
		t.Fatalf("ring buffer grew to %d slots for a depth-9 queue", cap)
	}
}

func TestStaticAnnotationsEstimate(t *testing.T) {
	var sa StaticAnnotations
	g := tdg.New(nil)
	crit := critTask(0)
	crit.Critical = false
	plain := plainTask(1)
	sa.Estimate(crit, g)
	sa.Estimate(plain, g)
	if !crit.Critical || plain.Critical {
		t.Fatalf("SA: crit=%v plain=%v", crit.Critical, plain.Critical)
	}
	if sa.SubmitCostCycles(100) != 0 {
		t.Fatal("SA must be free")
	}
	if sa.Name() != "SA" {
		t.Fatal("name")
	}
}

func TestBottomLevelEstimate(t *testing.T) {
	bl := NewBottomLevel()
	g := tdg.New(nil)
	// Chain of 3 via inout + one independent task.
	inout := [2][]tdg.Token{{1}, {1}}
	in := compile(inout, inout, inout, [2][]tdg.Token{})
	chain := make([]*tdg.Task, 3)
	for i := range chain {
		chain[i] = in.Task(i)
		chain[i].Type = &tdg.TaskType{Name: "x"}
		g.Submit(chain[i])
	}
	indep := in.Task(3)
	indep.Type = &tdg.TaskType{Name: "y"}
	g.Submit(indep)

	bl.Estimate(chain[0], g) // BL=2 == max → critical
	bl.Estimate(indep, g)    // BL=0 → not
	if !chain[0].Critical || indep.Critical {
		t.Fatalf("BL: head=%v indep=%v", chain[0].Critical, indep.Critical)
	}
	if bl.SubmitCostCycles(10) != 8000 {
		t.Fatalf("BL cost = %d", bl.SubmitCostCycles(10))
	}
}

func TestBottomLevelFlatTDGNonCritical(t *testing.T) {
	bl := NewBottomLevel()
	g := tdg.New(nil)
	in := compile(make([][2][]tdg.Token, 4)...)
	tasks := make([]*tdg.Task, 4)
	for i := range tasks {
		tasks[i] = in.Task(i)
		tasks[i].Type = &tdg.TaskType{Name: "p"}
		g.Submit(tasks[i])
		bl.Estimate(tasks[i], g)
		if tasks[i].Critical {
			t.Fatal("flat TDG task marked critical")
		}
	}
}

func TestBottomLevelTheta(t *testing.T) {
	bl := &BottomLevel{Theta: 0.5, CostPerNodeCycles: 1}
	g := tdg.New(nil)
	inout := [2][]tdg.Token{{1}, {1}}
	in := compile(inout, inout, inout, inout, inout)
	chain := make([]*tdg.Task, 5)
	for i := range chain {
		chain[i] = in.Task(i)
		g.Submit(chain[i])
	}
	// BLs are 4,3,2,1,0; Theta 0.5 → critical iff BL >= 2.
	wantCrit := []bool{true, true, true, false, false}
	for i, task := range chain {
		bl.Estimate(task, g)
		if task.Critical != wantCrit[i] {
			t.Fatalf("theta: task %d critical=%v want %v", i, task.Critical, wantCrit[i])
		}
	}
}

func TestFIFOIsBlind(t *testing.T) {
	info := &fakeInfo{fast: map[int]bool{0: true}}
	f := NewFIFO(info)
	c := critTask(1)
	p := plainTask(2)
	f.Enqueue(p)
	f.Enqueue(c)
	// Slow core takes the head regardless of criticality.
	if got := f.Dequeue(5); got != p {
		t.Fatalf("FIFO gave %v, want head", got)
	}
	if got := f.Dequeue(5); got != c {
		t.Fatalf("FIFO gave %v", got)
	}
	if f.Stats().CriticalToSlow != 1 {
		t.Fatalf("inversions = %d, want 1", f.Stats().CriticalToSlow)
	}
	if f.Dequeue(0) != nil {
		t.Fatal("empty dequeue should be nil")
	}
}

func TestCATSFastCorePrefersHPRQ(t *testing.T) {
	info := &fakeInfo{fast: map[int]bool{0: true}}
	s := NewCATS(info)
	p := plainTask(1)
	c := critTask(2)
	s.Enqueue(p)
	s.Enqueue(c)
	if got := s.Dequeue(0); got != c {
		t.Fatalf("fast core got %v, want critical", got)
	}
	if got := s.Dequeue(0); got != p {
		t.Fatalf("fast core fallback got %v, want plain", got)
	}
	if s.Stats().CriticalToFast != 1 || s.Stats().NonCriticalToFast != 1 {
		t.Fatalf("stats = %+v", *s.Stats())
	}
}

func TestCATSSlowCoreStealingRule(t *testing.T) {
	info := &fakeInfo{fast: map[int]bool{0: true}, fastIdle: true}
	s := NewCATS(info)
	c := critTask(1)
	s.Enqueue(c)
	// Fast core idle → slow core must NOT steal from HPRQ.
	if got := s.Dequeue(3); got != nil {
		t.Fatalf("slow core stole %v while fast core idle", got)
	}
	// No idle fast cores → stealing allowed.
	info.fastIdle = false
	if got := s.Dequeue(3); got != c {
		t.Fatalf("slow core should steal, got %v", got)
	}
	if s.Stats().Steals != 1 || s.Stats().CriticalToSlow != 1 {
		t.Fatalf("stats = %+v", *s.Stats())
	}
}

func TestCATSSlowCorePrefersLPRQ(t *testing.T) {
	info := &fakeInfo{fast: map[int]bool{0: true}}
	s := NewCATS(info)
	c := critTask(1)
	p := plainTask(2)
	s.Enqueue(c)
	s.Enqueue(p)
	if got := s.Dequeue(3); got != p {
		t.Fatalf("slow core got %v, want plain from LPRQ", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestCritFirstAnyCore(t *testing.T) {
	s := NewCritFirst()
	p := plainTask(1)
	c := critTask(2)
	s.Enqueue(p)
	s.Enqueue(c)
	if got := s.Dequeue(7); got != c {
		t.Fatalf("CritFirst gave %v, want critical first on any core", got)
	}
	if got := s.Dequeue(7); got != p {
		t.Fatalf("CritFirst gave %v", got)
	}
	if s.Dequeue(7) != nil {
		t.Fatal("empty dequeue")
	}
	if s.Stats().Dispatched != 2 {
		t.Fatalf("dispatched = %d", s.Stats().Dispatched)
	}
}

// Property: schedulers never lose or duplicate tasks.
func TestSchedulersConserveTasks(t *testing.T) {
	f := func(seed uint64, which uint8) bool {
		rng := xrand.New(seed)
		info := &fakeInfo{fast: map[int]bool{0: true, 1: true}}
		var s Scheduler
		switch which % 3 {
		case 0:
			s = NewFIFO(info)
		case 1:
			s = NewCATS(info)
		default:
			s = NewCritFirst()
		}
		n := 1 + rng.Intn(200)
		seen := make(map[int]int)
		queued := 0
		for i := 0; i < n; i++ {
			if rng.Bool(0.6) {
				var task *tdg.Task
				if rng.Bool(0.3) {
					task = critTask(i)
				} else {
					task = plainTask(i)
				}
				s.Enqueue(task)
				queued++
			} else {
				info.fastIdle = rng.Bool(0.5)
				if got := s.Dequeue(rng.Intn(4)); got != nil {
					seen[got.ID]++
					queued--
				}
			}
			if s.Len() != queued {
				return false
			}
		}
		info.fastIdle = false
		for {
			got := s.Dequeue(rng.Intn(4))
			if got == nil {
				break
			}
			seen[got.ID]++
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerNames(t *testing.T) {
	info := &fakeInfo{fast: map[int]bool{}}
	if NewFIFO(info).Name() != "FIFO" || NewCATS(info).Name() != "CATS" ||
		NewCritFirst().Name() != "CritFirst" {
		t.Fatal("scheduler names wrong")
	}
	if NewBottomLevel().Name() != "BL" {
		t.Fatal("estimator name wrong")
	}
}

func TestNewCATSRequiresInfo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCATS(nil) did not panic")
		}
	}()
	NewCATS(nil)
}
