package cata_test

// Golden fixtures for open-system runs: one committed Measurement JSON
// per policy, each holding three arrival streams on a shared machine.
// They pin what an open run produces — response-time report, makespan,
// energy, scheduler and reconfiguration counters — so work on the
// arrival path (how arrivals are queued, how each job is built) must
// land with zero diffs. The streams cover the cases where order
// matters most:
//
//   - poisson-cap: Poisson arrivals far faster than the machine
//     drains, under a tight in-system cap, so arrivals are shed;
//   - fixed-tie: fixed-interval arrivals of skew-free jobs, on exact
//     multiples of the interval where ties with other events can occur
//     (the tie order itself is pinned in internal/rts by
//     TestOpenArrivalKeepsInjectOrderOnTies);
//   - custom-shared: one custom Program shared by every job (with a
//     barrier), so jobs built from one template must not alias.
//
// Integers are kept exact; other numbers are canonicalized to 9
// significant digits, as in the trace golden.
//
// Regenerate intentionally with:
//
//	go test -run TestGoldenOpenRuns -update .

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cata/internal/exp"
	"cata/internal/program"
	"cata/internal/sim"
	"cata/internal/tdg"
)

// goldenOpenProgram is the custom-shared stream's job: a three-link
// inout chain beside four independent tasks, a barrier, then a join
// reading the chain's datum.
func goldenOpenProgram() *program.Program {
	crit := &tdg.TaskType{Name: "link", Criticality: 1}
	plain := &tdg.TaskType{Name: "side", Criticality: 0}
	p := &program.Program{Name: "open-golden"}
	for i := 0; i < 3; i++ {
		p.AddTask(program.TaskSpec{Type: crit, CPUCycles: 40_000, MemTime: 5 * sim.Microsecond,
			Ins: []tdg.Token{1}, Outs: []tdg.Token{1}})
	}
	for i := 0; i < 4; i++ {
		p.AddTask(program.TaskSpec{Type: plain, CPUCycles: 60_000, Outs: []tdg.Token{tdg.Token(10 + i)}})
	}
	p.AddBarrier()
	p.AddTask(program.TaskSpec{Type: crit, CPUCycles: 20_000, Ins: []tdg.Token{1, 10}, Outs: []tdg.Token{2}})
	return p
}

// goldenOpenSpecs returns the three open streams under policy.
func goldenOpenSpecs(policy exp.Policy) map[string]exp.RunSpec {
	base := exp.RunSpec{Policy: policy, FastCores: 4, Cores: 8, Seed: goldenSeed}
	capped, tie, custom := base, base, base
	capped.Workload = "forkjoin:width=4,phases=2,dur=50"
	capped.Arrivals = "poisson:lambda=150000,jobs=60,deadline=150us,cap=3,window=100us"
	tie.Workload = "forkjoin:width=4,phases=2,dur=40,skew=0"
	tie.Arrivals = "fixed:interval=100us,jobs=50,deadline=300us"
	custom.Program = goldenOpenProgram()
	custom.Arrivals = "poisson:lambda=40000,jobs=40,cap=6"
	return map[string]exp.RunSpec{"poisson-cap": capped, "fixed-tie": tie, "custom-shared": custom}
}

func goldenOpenPolicies() []exp.Policy {
	return []exp.Policy{exp.FIFO, exp.CATA, exp.CATARSU, exp.TURBO}
}

func buildGoldenOpen(t *testing.T, policy exp.Policy) []byte {
	t.Helper()
	runs := map[string]exp.Measurement{}
	for name, spec := range goldenOpenSpecs(policy) {
		m, err := exp.Run(spec)
		if err != nil {
			t.Fatalf("open golden %s/%v: %v", name, policy, err)
		}
		if m.Open == nil || m.Open.JobsArrived == 0 {
			t.Fatalf("open golden %s/%v: no arrivals reported", name, policy)
		}
		runs[name] = m
	}
	b, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(canonNumbers(doc), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// canonNumbers rewrites every non-integer number in a tree decoded with
// UseNumber to a 9 significant digit literal, leaving integers exact.
func canonNumbers(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = canonNumbers(e)
		}
	case []any:
		for i, e := range x {
			x[i] = canonNumbers(e)
		}
	case json.Number:
		if _, err := x.Int64(); err == nil {
			return x
		}
		f, err := x.Float64()
		if err != nil {
			return x
		}
		return json.Number(strconv.FormatFloat(f, 'g', 9, 64))
	}
	return v
}

func TestGoldenOpenRuns(t *testing.T) {
	for _, policy := range goldenOpenPolicies() {
		t.Run(policy.String(), func(t *testing.T) {
			got := buildGoldenOpen(t, policy)
			path := filepath.Join("testdata", "golden", "open_"+policy.String()+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading %s (regenerate with -update): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("open-run golden %s drifted; got:\n%s", path, got)
			}
		})
	}
}
