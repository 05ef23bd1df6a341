package program

import (
	"fmt"
	"math"

	"cata/internal/tdg"
)

// Compiled is a validated program with its task dependence graph
// resolved: the immutable form every run executes. Compiling walks the
// program's data accesses once, so the RAW/WAR/WAW edges are computed
// once per program rather than once per run, and one Compiled may be
// shared read-only by any number of concurrent runs, each of which
// instantiates its own tasks from the DAG.
//
// The source Program must not be modified after it is compiled.
type Compiled struct {
	prog *Program
	dag  tdg.DAG
}

// Compile validates p and resolves its dependences. It is the only way
// to obtain a Compiled.
func Compile(p *Program) (*Compiled, error) {
	var c Compiler
	return c.Compile(p)
}

// Compiler compiles programs one after another, reusing its
// dependence-resolution scratch between them (bounded: scratch grown by
// an unusually large program is released, not kept). The zero Compiler
// is ready to use; it is not safe for concurrent use.
type Compiler struct {
	res tdg.Resolver
}

// Compile validates p and resolves its dependences, like the package
// function Compile.
func (c *Compiler) Compile(p *Program) (*Compiled, error) {
	if p == nil {
		return nil, fmt.Errorf("program: nil program")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Items) > math.MaxInt32 {
		return nil, fmt.Errorf("program %s: %d items exceed the task limit", p.Name, len(p.Items))
	}
	accesses := 0
	for _, it := range p.Items {
		if it.Task != nil {
			accesses += len(it.Task.Ins) + len(it.Task.Outs)
		}
	}
	c.res.Grow(accesses)
	for _, it := range p.Items {
		if it.Task != nil {
			c.res.Add(it.Task.Ins, it.Task.Outs)
		}
	}
	comp := &Compiled{prog: p}
	c.res.Fill(&comp.dag)
	return comp, nil
}

// Name returns the program's name.
func (c *Compiled) Name() string { return c.prog.Name }

// DAG returns the resolved dependence structure, one node per task
// creation in program order.
func (c *Compiled) DAG() *tdg.DAG { return &c.dag }

// Program returns the source program, for read-only inspection.
func (c *Compiled) Program() *Program { return c.prog }
