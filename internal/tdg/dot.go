package tdg

import (
	"fmt"
	"io"
	"sort"
)

// WriteDOT renders the given tasks as a Graphviz digraph, one node per
// task labeled with its type, ID and bottom level. Critical tasks are
// drawn as boxes, mirroring Figure 1 of the paper. Useful for debugging
// workload generators and for documentation.
//
// Beyond the rendered label, each node carries machine-readable cost
// attributes (type, criticality, cycles, mem_ps, io_ps) that Graphviz
// ignores but ReadDOT understands, so an exported graph can be
// re-imported and re-simulated with its costs intact.
func WriteDOT(w io.Writer, tasks []*Task) error {
	sorted := append([]*Task(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	if _, err := fmt.Fprintln(w, "digraph tdg {"); err != nil {
		return err
	}
	for _, t := range sorted {
		shape := "ellipse"
		if t.Critical {
			shape = "box"
		}
		name, crit := "?", 0
		if t.Type != nil {
			name = t.Type.Name
			crit = t.Type.Criticality
		}
		if _, err := fmt.Fprintf(w, "  t%d [label=\"%s #%d\\nbl=%d\" shape=%s type=\"%s\" criticality=%d cycles=%d mem_ps=%d io_ps=%d];\n",
			t.ID, name, t.ID, t.BottomLevel, shape, name, crit,
			t.CPUCycles, int64(t.MemTime), int64(t.IOTime)); err != nil {
			return err
		}
	}
	for _, t := range sorted {
		for _, s := range t.Succs() {
			if _, err := fmt.Fprintf(w, "  t%d -> t%d;\n", t.ID, s.ID); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
