package experiments

import (
	"fmt"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/runspec"
)

// PolicySweepOptions scales the direction-policy sensitivity study.
type PolicySweepOptions struct {
	Nodes, Scale int
	Roots        int
	Seed         int64
	// Alphas and Betas are the threshold grids (defaults bracket the
	// Beamer values the paper's TRAVERSAL_POLICY uses).
	Alphas, Betas []float64
}

func (o PolicySweepOptions) withDefaults() PolicySweepOptions {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Scale == 0 {
		o.Scale = 14
	}
	if o.Roots == 0 {
		o.Roots = 2
	}
	if o.Seed == 0 {
		o.Seed = 20160624
	}
	if o.Alphas == nil {
		o.Alphas = []float64{2, 14, 100}
	}
	if o.Betas == nil {
		o.Betas = []float64{4, 24, 100}
	}
	return o
}

// PolicySweep measures the hybrid policy's sensitivity to its alpha/beta
// thresholds: GTEPS and bottom-up level counts across the grid, with the
// top-down-only baseline for reference. The broad flatness around the
// defaults (and the gap to the baseline) is what makes the heuristic
// practical. Every cell runs under spec.
func PolicySweep(spec runspec.Spec, opts PolicySweepOptions) (*Table, error) {
	opts = opts.withDefaults()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	roots, err := graph500.SampleRoots(g, opts.Roots, opts.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "policy",
		Title:  "Direction policy sensitivity (TRAVERSAL_POLICY thresholds)",
		Header: []string{"alpha", "beta", "GTEPS", "bottom-up levels", "levels"},
	}

	measure := func(cfg core.Config) (gteps float64, bu, lv int, err error) {
		gteps, err = harmonicGTEPS(spec.Apply(cfg), g, roots, func(_ int, res *core.Result) {
			bu += res.BottomUpLevels
			lv += len(res.Levels)
		})
		return gteps, bu, lv, err
	}

	for _, alpha := range opts.Alphas {
		for _, beta := range opts.Betas {
			cfg := scaledConfig(opts.Nodes)
			cfg.Alpha, cfg.Beta = alpha, beta
			gteps, bu, lv, err := measure(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%.0f", alpha), fmt.Sprintf("%.0f", beta),
				fmt.Sprintf("%.3f", gteps), fmt.Sprint(bu), fmt.Sprint(lv))
		}
	}
	// Top-down baseline.
	cfg := scaledConfig(opts.Nodes)
	cfg.DirectionOptimized = false
	gteps, bu, lv, err := measure(cfg)
	if err != nil {
		return nil, err
	}
	t.AddRow("-", "-", fmt.Sprintf("%.3f", gteps), fmt.Sprint(bu), fmt.Sprint(lv))
	t.AddNote("last row: direction optimization disabled (top-down only)")
	t.AddNote("%d nodes, scale-%d Kronecker, %d roots per cell", opts.Nodes, opts.Scale, opts.Roots)
	return t, nil
}
