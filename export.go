package cata

import (
	"io"

	"cata/internal/program"
	"cata/internal/tdg"
	"cata/internal/workloads"
)

// resolveProgram builds the program behind an export: the custom Program
// when p is non-nil, the workload spec otherwise.
func resolveProgram(workloadSpec string, seed uint64, scale float64, p *Program) (*program.Program, error) {
	if p != nil {
		if err := p.Err(); err != nil {
			return nil, err
		}
		return p.build(), nil
	}
	if seed == 0 {
		seed = 42
	}
	if scale == 0 {
		scale = 1.0
	}
	return workloads.Build(workloadSpec, seed, scale)
}

// ExportDOT writes the task dependence graph of a workload spec (or a
// custom Program, if p is non-nil) as a Graphviz digraph, with critical
// types drawn as boxes — the Figure 1 visualization. Each node also
// carries machine-readable cost attributes, so the output re-imports as
// the "dot" workload with costs intact. Barriers are not edges in the TDG
// and are omitted; the graph shows data dependences only.
func ExportDOT(w io.Writer, workloadSpec string, seed uint64, scale float64, p *Program) error {
	prog, err := resolveProgram(workloadSpec, seed, scale, p)
	if err != nil {
		return err
	}
	c, err := program.Compile(prog)
	if err != nil {
		return err
	}
	var in tdg.Instance
	in.Init(c.DAG())
	g := tdg.New(nil)
	tasks := make([]*tdg.Task, 0, in.Len())
	for _, it := range prog.Items {
		if it.Task == nil {
			continue
		}
		t := in.Next()
		t.ID = len(tasks)
		t.Type = it.Task.Type
		t.CPUCycles = it.Task.CPUCycles
		t.MemTime = it.Task.MemTime
		t.IOTime = it.Task.IOTime
		t.Critical = it.Task.Type != nil && it.Task.Type.Criticality > 0
		g.Submit(t)
		tasks = append(tasks, t)
	}
	return tdg.WriteDOT(w, tasks)
}

// ExportTrace writes the program of a workload spec (or a custom Program,
// if p is non-nil) as a JSON task-graph trace. The trace is complete —
// task types, costs, data dependences and barriers — so replaying it with
// the "trace" workload (RunConfig.Workload = "trace:file=PATH") under the
// same policy, seed and machine reproduces the original run exactly,
// including its EDP. Exports of the same workload spec are byte-identical
// across runs and platforms.
func ExportTrace(w io.Writer, workloadSpec string, seed uint64, scale float64, p *Program) error {
	prog, err := resolveProgram(workloadSpec, seed, scale, p)
	if err != nil {
		return err
	}
	return program.WriteJSON(w, prog)
}
