package experiments

import (
	"fmt"
	"math/bits"

	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/runspec"
)

// StrongOptions scales the strong-scaling study.
type StrongOptions struct {
	// Scale fixes the total problem size (default 16; quick mode 14).
	Scale int
	// Nodes are the machine sizes to divide it over (powers of two;
	// default {1, 2, 4, 8, 16, 32}).
	Nodes []int
	Roots int
	Seed  int64
	Quick bool
}

func (o StrongOptions) withDefaults() StrongOptions {
	if o.Scale == 0 {
		o.Scale = 18
		if o.Quick {
			o.Scale = 15
		}
	}
	if o.Nodes == nil {
		// Start at 4 nodes: a single node pays no network at all in the
		// model, which would make every multi-node point look like a
		// slowdown regardless of the machine.
		o.Nodes = []int{4, 8, 16, 32, 64}
	}
	if o.Roots == 0 {
		o.Roots = 2
	}
	if o.Seed == 0 {
		o.Seed = 20160624
	}
	return o
}

// StrongScaling complements the paper's weak-scaling study (Figure 12)
// with the other axis downstream users ask about: a fixed problem divided
// over more nodes. At laptop-feasible problem sizes the table documents
// where strong scaling stops paying on this machine: aggregate GTEPS
// *declines* once the per-node share drops into the latency/termination
// floor — the very mechanism the paper cites for Figure 12's curve
// separation ("when data size is small ... the high latency is the main
// reason for inefficiency"). Efficiency is the fraction of ideal speedup
// retained relative to the first row. Every functional run is under spec.
func StrongScaling(spec runspec.Spec, opts StrongOptions) *Table {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "strong",
		Title:  fmt.Sprintf("Strong scaling, scale-%d Kronecker, Relay CPE", opts.Scale),
		Header: []string{"nodes", "GTEPS", "speedup", "efficiency"},
	}
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		t.AddNote("generation failed: %v", err)
		return t
	}
	roots, err := graph500.SampleRoots(g, opts.Roots, opts.Seed)
	if err != nil {
		t.AddNote("root sampling failed: %v", err)
		return t
	}

	var base float64
	for _, nodes := range opts.Nodes {
		if nodes <= 0 || bits.OnesCount(uint(nodes)) != 1 {
			t.AddRow(fmt.Sprint(nodes), "skip (not a power of two)", "-", "-")
			continue
		}
		gteps, err := harmonicGTEPS(spec.Apply(scaledConfig(nodes)), g, roots, nil)
		if err != nil {
			t.AddRow(fmt.Sprint(nodes), crashCell(err), "-", "-")
			continue
		}
		if base == 0 {
			base = gteps
		}
		speedup := gteps / base
		eff := speedup / float64(nodes) * float64(opts.Nodes[0])
		t.AddRow(fmt.Sprint(nodes), fmt.Sprintf("%.3f", gteps),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.0f%%", eff*100))
	}
	t.AddNote("fixed total problem; %d roots per point; efficiency relative to the first row", opts.Roots)
	t.AddNote("declining aggregate GTEPS marks the latency-bound regime (paper: 'the high latency is the main reason for inefficiency' at small per-node sizes)")
	return t
}
