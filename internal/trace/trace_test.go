package trace

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"cata/internal/machine"
	"cata/internal/program"
	"cata/internal/rts"
	"cata/internal/sched"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// runRetained executes a small program and returns its retained tasks.
func runRetained(t *testing.T) []*tdg.Task {
	t.Helper()
	eng := sim.NewEngine()
	mcfg := machine.TableIConfig()
	mcfg.Cores = 4
	m, err := machine.New(eng, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &program.Program{Name: "traced"}
	tt := &tdg.TaskType{Name: "work", Criticality: 1}
	for i := 0; i < 10; i++ {
		p.AddTask(program.TaskSpec{Type: tt, CPUCycles: 200_000})
	}
	c, err := program.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := rts.DefaultOptions()
	opts.RetainTasks = true
	r, err := rts.New(eng, rts.Config{
		Machine: m,
		Program: c,
		NewScheduler: func(info sched.CoreInfo) sched.Scheduler {
			return sched.NewFIFO(info)
		},
		Estimator: sched.StaticAnnotations{},
		Options:   opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r.Tasks()
}

func TestFromTasks(t *testing.T) {
	tasks := runRetained(t)
	if len(tasks) != 10 {
		t.Fatalf("retained %d tasks", len(tasks))
	}
	events := FromTasks(tasks)
	if len(events) != 10 {
		t.Fatalf("events = %d", len(events))
	}
	for _, e := range events {
		if e.Ph != "X" || e.Dur <= 0 || e.Ts < 0 {
			t.Fatalf("malformed event %+v", e)
		}
		if e.Tid < 0 || e.Tid >= 4 {
			t.Fatalf("event on impossible core %d", e.Tid)
		}
		if e.Cat != "task,critical" {
			t.Fatalf("critical task not categorized: %q", e.Cat)
		}
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Tid < events[j].Tid
	}) {
		t.Fatal("events not sorted by start time")
	}
}

func TestWriteProducesValidChromeTrace(t *testing.T) {
	tasks := runRetained(t)
	var buf bytes.Buffer
	if err := Write(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(f.TraceEvents) != 10 || f.DisplayTimeUnit != "ms" {
		t.Fatalf("trace content wrong: %d events, unit %q",
			len(f.TraceEvents), f.DisplayTimeUnit)
	}
}

func TestSummary(t *testing.T) {
	tasks := runRetained(t)
	busy := Summary(tasks)
	var total sim.Time
	for core, b := range busy {
		if core < 0 || core >= 4 || b <= 0 {
			t.Fatalf("summary wrong: core %d busy %v", core, b)
		}
		total += b
	}
	// 10 tasks of 200k cycles at 1 GHz = 2ms of body time.
	if total != 2*sim.Millisecond {
		t.Fatalf("total busy = %v, want 2ms", total)
	}
}

func TestSkipsUnfinishedTasks(t *testing.T) {
	unstarted := &tdg.Task{ID: 1, Type: &tdg.TaskType{Name: "x"}}
	if got := FromTasks([]*tdg.Task{unstarted}); len(got) != 0 {
		t.Fatalf("unfinished task exported: %v", got)
	}
}

func TestRenderASCII(t *testing.T) {
	tasks := runRetained(t)
	var buf bytes.Buffer
	if err := RenderASCII(&buf, tasks, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + one row per core.
	if len(lines) != 1+4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "core  0 |") {
		t.Fatalf("row format wrong: %q", lines[1])
	}
	// All tasks are critical in the fixture: some '#' must appear in the
	// rows and '=' must not (the header legend mentions both).
	rows := strings.Join(lines[1:], "\n")
	body := rows[strings.Index(rows, "|"):]
	if !strings.Contains(body, "#") || strings.Contains(body, "=") {
		t.Fatalf("criticality glyphs wrong:\n%s", out)
	}
	// Rows all equal width.
	for _, l := range lines[1:] {
		if len(l) != len(lines[1]) {
			t.Fatalf("ragged rows:\n%s", out)
		}
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	// Zero finished tasks must render a notice, not error out or build a
	// degenerate zero-width chart — both for a nil slice and for a slice
	// of retained-but-never-run tasks.
	for _, tasks := range [][]*tdg.Task{
		nil,
		{{ID: 1, Type: &tdg.TaskType{Name: "x"}}, {ID: 2, Type: &tdg.TaskType{Name: "y"}}},
	} {
		var buf bytes.Buffer
		if err := RenderASCII(&buf, tasks, 40); err != nil {
			t.Fatalf("empty render errored: %v", err)
		}
		if !strings.Contains(buf.String(), "no finished tasks") {
			t.Fatalf("empty render output %q, want notice", buf.String())
		}
	}
}

func TestRenderASCIITinyWidthClamped(t *testing.T) {
	tasks := runRetained(t)
	var buf bytes.Buffer
	if err := RenderASCII(&buf, tasks, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core") {
		t.Fatal("clamped width render failed")
	}
}
