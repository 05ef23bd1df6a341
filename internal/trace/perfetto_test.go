package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"cata/internal/machine"
	"cata/internal/probe"
	"cata/internal/program"
	"cata/internal/rts"
	"cata/internal/sched"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// recordRun executes a small dependent program with a flight recorder
// attached and returns the pieces WriteRecording consumes.
func recordRun(t *testing.T) ([]*tdg.Task, *probe.Buffer) {
	t.Helper()
	eng := sim.NewEngine()
	mcfg := machine.TableIConfig()
	mcfg.Cores = 4
	m, err := machine.New(eng, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := probe.NewBuffer()
	m.SetRecorder(buf)
	m.SetHeterogeneous(2)
	p := &program.Program{Name: "traced"}
	tt := &tdg.TaskType{Name: "work", Criticality: 1}
	// A chain plus independent tasks: the chain produces dependence
	// edges, the rest fill the other cores.
	p.AddTask(program.TaskSpec{Type: tt, CPUCycles: 200_000, Outs: []tdg.Token{1}})
	p.AddTask(program.TaskSpec{Type: tt, CPUCycles: 200_000, Ins: []tdg.Token{1}, Outs: []tdg.Token{2}})
	p.AddTask(program.TaskSpec{Type: tt, CPUCycles: 200_000, Ins: []tdg.Token{2}})
	for i := 0; i < 6; i++ {
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
			return sched.NewCATS(info)
		},
		Estimator: sched.StaticAnnotations{},
		Options:   opts,
		Recorder:  buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r.Tasks(), buf
}

func phases(events []Event) map[string]int {
	n := make(map[string]int)
	for _, e := range events {
		n[e.Ph]++
	}
	return n
}

func TestWriteRecordingFullTrace(t *testing.T) {
	tasks, buf := recordRun(t)
	rec := &Recording{
		Workload: "traced", Policy: "CATS", Cores: 4,
		Fast:        []bool{true, true, false, false},
		BudgetWatts: 20,
		Tasks:       tasks,
		Probe:       buf,
	}
	var out bytes.Buffer
	if err := WriteRecording(&out, rec); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("recording JSON does not parse: %v", err)
	}
	ph := phases(f.TraceEvents)
	// Process name + 4 thread names.
	if ph["M"] != 5 {
		t.Fatalf("M events = %d, want 5", ph["M"])
	}
	if ph["X"] != 9 {
		t.Fatalf("X events = %d, want 9 task spans", ph["X"])
	}
	// Two dependence edges, each one s/f pair.
	if ph["s"] != 2 || ph["f"] != 2 {
		t.Fatalf("flow events s=%d f=%d, want 2/2", ph["s"], ph["f"])
	}
	// Counters: 4 freq seeds (+ the heterogeneous re-seed on 2 cores),
	// at least one power sample, at least one queue sample.
	if ph["C"] == 0 {
		t.Fatalf("no counter events")
	}
	names := make(map[string]int)
	for _, e := range f.TraceEvents {
		if e.Ph == "C" {
			names[e.Name]++
		}
	}
	for core := 0; core < 4; core++ {
		if names["freq core "+string(rune('0'+core))] == 0 {
			t.Fatalf("no freq counter for core %d: %v", core, names)
		}
	}
	if names["power (W)"] == 0 || names["ready queue"] == 0 {
		t.Fatalf("missing power/queue counters: %v", names)
	}
	for _, e := range f.TraceEvents {
		if e.Ph == "C" && e.Name == "power (W)" {
			if e.Args["budget"] != 20.0 {
				t.Fatalf("power counter missing budget arg: %+v", e)
			}
		}
		if e.Ph == "f" && e.BindPoint != "e" {
			t.Fatalf("flow finish without bp=e: %+v", e)
		}
		if e.Ph == "s" || e.Ph == "f" {
			if e.ID == "" {
				t.Fatalf("flow event without id: %+v", e)
			}
		}
	}
}

func TestRecordingInstants(t *testing.T) {
	// The instant classes not exercised by a CATS run (DVFS requests,
	// cpufreq writes, accel grant/deny) render from a synthetic buffer.
	buf := probe.NewBuffer()
	buf.FreqRequest(10*sim.Microsecond, 2, 1)
	buf.CpufreqWrite(20*sim.Microsecond, 0, 2, 1, 3*sim.Microsecond, 9*sim.Microsecond)
	buf.AccelGrant(30*sim.Microsecond, 2, true, 3, 4)
	buf.AccelDeny(40*sim.Microsecond, 1, false, 4, 4)
	rec := &Recording{Workload: "synt", Policy: "CATA", Cores: 4, Probe: buf}
	events := rec.Events()
	byName := make(map[string]Event)
	for _, e := range events {
		if e.Ph == "i" {
			byName[e.Name] = e
		}
	}
	if len(byName) != 4 {
		t.Fatalf("instant names = %v, want 4 kinds", byName)
	}
	for _, name := range []string{"dvfs request", "cpufreq write", "accel grant", "accel deny"} {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("missing instant %q", name)
		}
		if e.Scope != "t" {
			t.Fatalf("instant %q scope = %q, want t", name, e.Scope)
		}
	}
	if w := byName["cpufreq write"]; w.Args["lock_wait_us"] != 3.0 || w.Args["total_us"] != 9.0 {
		t.Fatalf("cpufreq write args wrong: %+v", w.Args)
	}
	if g := byName["accel grant"]; g.Args["used"] != 3 || g.Args["budget"] != 4 {
		t.Fatalf("accel grant args wrong: %+v", g.Args)
	}
}
