package program

import (
	"encoding/json"
	"fmt"
	"io"

	"cata/internal/sim"
	"cata/internal/tdg"
)

// The JSON trace format, version 1. A trace is the complete, portable
// form of a Program: the task types (annotation sites with their static
// criticality), then the master thread's creation sequence with each
// task's costs and data dependences. Everything the simulator consumes is
// preserved verbatim — re-importing an exported trace reproduces the
// original run bit for bit, and WriteJSON(ReadJSON(x)) == x.
//
//	{
//	  "version": 1,
//	  "name": "dedup",
//	  "types": [{"name": "fragment", "criticality": 1}, ...],
//	  "items": [
//	    {"type": "fragment", "cpu_cycles": 450000, "mem_ps": 1350000,
//	     "io_ps": 0, "ins": [1], "outs": [1, 3]},
//	    {"barrier": true},
//	    ...
//	  ]
//	}
//
// Times are integral picoseconds (the simulator's clock resolution), so
// no precision is lost in either direction.

type traceJSON struct {
	Version int        `json:"version"`
	Name    string     `json:"name"`
	Types   []typeJSON `json:"types"`
	Items   []itemJSON `json:"items"`
}

type typeJSON struct {
	Name        string `json:"name"`
	Criticality int    `json:"criticality,omitempty"`
}

type itemJSON struct {
	Barrier   bool     `json:"barrier,omitempty"`
	Type      string   `json:"type,omitempty"`
	CPUCycles int64    `json:"cpu_cycles,omitempty"`
	MemPs     int64    `json:"mem_ps,omitempty"`
	IOPs      int64    `json:"io_ps,omitempty"`
	Ins       []uint64 `json:"ins,omitempty"`
	Outs      []uint64 `json:"outs,omitempty"`
}

// WriteJSON writes p as a version-1 JSON trace. Task types are emitted in
// first-use order, so the encoding of a given program is deterministic:
// equal programs produce byte-identical traces.
func WriteJSON(w io.Writer, p *Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("program: exporting: %w", err)
	}
	doc := traceJSON{Version: 1, Name: p.Name, Types: []typeJSON{}, Items: []itemJSON{}}
	typeIndex := map[*tdg.TaskType]bool{}
	names := map[string]*tdg.TaskType{}
	for _, it := range p.Items {
		if it.Barrier {
			doc.Items = append(doc.Items, itemJSON{Barrier: true})
			continue
		}
		t := it.Task
		if !typeIndex[t.Type] {
			if prev, taken := names[t.Type.Name]; taken && prev != t.Type {
				return fmt.Errorf("program %s: two distinct task types named %q", p.Name, t.Type.Name)
			}
			typeIndex[t.Type] = true
			names[t.Type.Name] = t.Type
			doc.Types = append(doc.Types, typeJSON{Name: t.Type.Name, Criticality: t.Type.Criticality})
		}
		doc.Items = append(doc.Items, itemJSON{
			Type:      t.Type.Name,
			CPUCycles: t.CPUCycles,
			MemPs:     int64(t.MemTime),
			IOPs:      int64(t.IOTime),
			Ins:       tokensOut(t.Ins),
			Outs:      tokensOut(t.Outs),
		})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("program: encoding trace: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadJSON parses a version-1 JSON trace into a Program. Task-type
// identity is reconstructed from the trace's type table, so instances of
// the same type share one *tdg.TaskType exactly as in the original.
func ReadJSON(r io.Reader) (*Program, error) {
	var doc traceJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("program: parsing trace: %w", err)
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("program: unsupported trace version %d (want 1)", doc.Version)
	}
	types := make(map[string]*tdg.TaskType, len(doc.Types))
	for _, tj := range doc.Types {
		if tj.Name == "" {
			return nil, fmt.Errorf("program: trace %s: task type with empty name", doc.Name)
		}
		if _, dup := types[tj.Name]; dup {
			return nil, fmt.Errorf("program: trace %s: duplicate task type %q", doc.Name, tj.Name)
		}
		types[tj.Name] = &tdg.TaskType{Name: tj.Name, Criticality: tj.Criticality}
	}
	p := &Program{Name: doc.Name}
	p.Grow(len(doc.Items), 0)
	for i, ij := range doc.Items {
		switch {
		case ij.Barrier:
			p.AddBarrier()
		case ij.Type != "":
			tt, ok := types[ij.Type]
			if !ok {
				return nil, fmt.Errorf("program: trace %s: item %d uses undeclared type %q", doc.Name, i, ij.Type)
			}
			p.AddTask(TaskSpec{
				Type:      tt,
				CPUCycles: ij.CPUCycles,
				MemTime:   sim.Time(ij.MemPs),
				IOTime:    sim.Time(ij.IOPs),
				Ins:       tokensIn(ij.Ins),
				Outs:      tokensIn(ij.Outs),
			})
		default:
			return nil, fmt.Errorf("program: trace %s: item %d is neither task nor barrier", doc.Name, i)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("program: trace: %w", err)
	}
	return p, nil
}

func tokensOut(ts []tdg.Token) []uint64 {
	if len(ts) == 0 {
		return nil
	}
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = uint64(t)
	}
	return out
}

func tokensIn(ts []uint64) []tdg.Token {
	if len(ts) == 0 {
		return nil
	}
	out := make([]tdg.Token, len(ts))
	for i, t := range ts {
		out[i] = tdg.Token(t)
	}
	return out
}
