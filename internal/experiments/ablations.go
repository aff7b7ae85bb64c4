package experiments

import (
	"fmt"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
	"swbfs/internal/runspec"
)

// AblationOptions scales the ablation study.
type AblationOptions struct {
	// Nodes and Scale fix the common workload (defaults 8 and 15).
	Nodes, Scale int
	// Roots per configuration (default 2) and Seed.
	Roots int
	Seed  int64
}

func (o AblationOptions) withDefaults() AblationOptions {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Scale == 0 {
		o.Scale = 15
	}
	if o.Roots == 0 {
		o.Roots = 2
	}
	if o.Seed == 0 {
		o.Seed = 20160624
	}
	return o
}

// Ablations measures each design choice DESIGN.md calls out, toggled on
// the production configuration: direction optimization, hub prefetch, the
// small-message MPE fast path, message compression (the Section 7
// extension) and the partition strategy. Every variant runs under spec;
// the compression variant sets its own codec on top.
func Ablations(spec runspec.Spec, opts AblationOptions) (*Table, error) {
	opts = opts.withDefaults()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	roots, err := graph500.SampleRoots(g, opts.Roots, opts.Seed)
	if err != nil {
		return nil, err
	}

	base := func() core.Config { return spec.Apply(scaledConfig(opts.Nodes)) }

	type variant struct {
		name string
		cfg  core.Config
	}
	variants := []variant{
		{"production (all on)", base()},
		{"no direction optimization", func() core.Config { c := base(); c.DirectionOptimized = false; return c }()},
		{"no hub prefetch", func() core.Config { c := base(); c.HubPrefetch = false; return c }()},
		{"no small-message MPE path", func() core.Config { c := base(); c.SmallMessageMPE = false; return c }()},
		{"varint-delta compression", func() core.Config { c := base(); c.Codec = comm.VarintDeltaCodec{}; return c }()},
		{"block partition", func() core.Config { c := base(); c.Partition = core.PartitionBlock; return c }()},
		{"degree-balanced partition", func() core.Config { c := base(); c.Partition = core.PartitionDegreeBalanced; return c }()},
		{"direct transport", func() core.Config { c := base(); c.Transport = core.TransportDirect; return c }()},
		{"MPE engine", func() core.Config { c := base(); c.Engine = perf.EngineMPE; return c }()},
	}

	t := &Table{
		ID:     "ablations",
		Title:  "Design-choice ablations on the production configuration",
		Header: []string{"variant", "GTEPS", "net MB", "vs production"},
	}
	var baseline float64
	for i, v := range variants {
		var netBytes int64
		gteps, err := harmonicGTEPS(v.cfg, g, roots, func(_ int, res *core.Result) {
			for _, l := range res.Levels {
				for _, b := range l.Net.Bytes {
					netBytes += b
				}
			}
		})
		if err != nil {
			t.AddRow(v.name, "CRASH", "-", "-")
			continue
		}
		if i == 0 {
			baseline = gteps
		}
		rel := "1.00x"
		if i > 0 && baseline > 0 {
			rel = fmt.Sprintf("%.2fx", gteps/baseline)
		}
		t.AddRow(v.name, fmt.Sprintf("%.3f", gteps),
			fmt.Sprintf("%.1f", float64(netBytes)/(1<<20)), rel)
	}
	t.AddNote("%d nodes, scale-%d Kronecker, %d roots per variant", opts.Nodes, opts.Scale, opts.Roots)
	return t, nil
}
