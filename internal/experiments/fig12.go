package experiments

import (
	"errors"
	"fmt"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/perf"
	"swbfs/internal/runspec"
	"swbfs/internal/sw"
)

func isSPMError(err error) bool {
	var overflow *sw.ErrSPMOverflow
	return errors.Is(err, core.ErrCPESPM) || errors.As(err, &overflow)
}

func isConnError(err error) bool {
	var conn *comm.ErrConnMemory
	return errors.As(err, &conn)
}

// Fig12Options scales the weak-scaling sweep.
type Fig12Options struct {
	// PerNodeLogs are log2 vertices-per-node for the three curves.
	// Default {9, 11, 13} — the same 1:4:16 ratios as the paper's
	// 1.6M / 6.5M / 26.2M vertices per node.
	PerNodeLogs []int
	// FunctionalNodes (powers of two; default {4, 16, 64}).
	FunctionalNodes []int
	// ProjectedNodes (default {256, 1024, 4096, 16384, 40768}).
	ProjectedNodes []int
	// Roots per data point (default 2) and Seed.
	Roots int
	Seed  int64
}

func (o Fig12Options) withDefaults() Fig12Options {
	if o.PerNodeLogs == nil {
		o.PerNodeLogs = []int{9, 11, 13}
	}
	if o.FunctionalNodes == nil {
		o.FunctionalNodes = []int{4, 16, 64}
	}
	if o.ProjectedNodes == nil {
		o.ProjectedNodes = []int{256, 1024, 4096, 16384, 40768}
	}
	if o.Roots == 0 {
		o.Roots = 2
	}
	if o.Seed == 0 {
		o.Seed = 20160624
	}
	return o
}

// Fig12 reproduces the weak-scaling study: GTEPS versus node count for
// three per-node problem sizes, on the production configuration
// (Relay + CPE), every functional run under spec. The paper's shape:
// near-linear scaling, with the curves separating as the node count grows
// — at full scale each 4x-larger per-node size is worth ~4x the GTEPS
// because small sizes are latency dominated.
func Fig12(spec runspec.Spec, opts Fig12Options) *Table {
	opts = opts.withDefaults()
	header := []string{"nodes"}
	for _, l := range opts.PerNodeLogs {
		header = append(header, fmt.Sprintf("%d vtx/node", int64(1)<<uint(l)))
	}
	header = append(header, "source")

	t := &Table{
		ID:     "fig12",
		Title:  "Weak scaling of BFS, Relay CPE (Figure 12)",
		Header: header,
	}

	last := make(map[int]*Measurement) // by perNodeLog

	for _, nodes := range opts.FunctionalNodes {
		row := []string{fmt.Sprint(nodes)}
		for _, l := range opts.PerNodeLogs {
			m := MeasureBFS(spec, nodes, l, core.TransportRelay, perf.EngineCPE, opts.Roots, opts.Seed)
			if m.Crashed() {
				row = append(row, crashCell(m.Err))
				continue
			}
			last[l] = m
			row = append(row, fmt.Sprintf("%.3f", m.GTEPS))
		}
		row = append(row, "measured")
		t.AddRow(row...)
	}
	for _, nodes := range opts.ProjectedNodes {
		row := []string{fmt.Sprint(nodes)}
		for _, l := range opts.PerNodeLogs {
			m := last[l]
			if m == nil {
				row = append(row, "n/a")
				continue
			}
			p := Project(m, nodes)
			if p.Crashed() {
				row = append(row, crashCell(p.Err))
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", p.GTEPS))
		}
		row = append(row, "modelled")
		t.AddRow(row...)
	}
	t.AddNote("GTEPS; per-node sizes keep the paper's 1:4:16 ratios (1.6M/6.5M/26.2M vertices per node, scaled down)")
	t.AddNote("paper shape: near-linear weak scaling; at 40,768 nodes each 4x-larger size is worth ~4x GTEPS")
	return t
}
