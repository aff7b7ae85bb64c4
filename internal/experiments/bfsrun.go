package experiments

import (
	"fmt"
	"math/bits"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
	"swbfs/internal/runspec"
)

// scaledSuperNodeSize is the super-node size of scaled-down functional
// runs: small enough that even modest node counts exercise the central
// (oversubscribed) network level.
const scaledSuperNodeSize = 16

// Measurement is one functional BFS data point: a machine configuration
// run on a weak-scaling-sized Kronecker graph, with the per-level
// statistics kept for projection to paper scale.
type Measurement struct {
	Nodes           int
	PerNodeVertices int64
	Transport       core.Transport
	Engine          perf.Engine

	GTEPS  float64 // harmonic mean across roots
	Edges  int64   // traversed undirected edges (representative run)
	Levels []perf.LevelStats

	Err error // simulated machine failure, if any
}

// Crashed reports whether the simulated machine failed.
func (m *Measurement) Crashed() bool { return m.Err != nil }

// MeasureBFS runs the configuration functionally under the run spec: a
// Kronecker graph with 2^perNodeLog vertices per node, `roots` BFS runs,
// harmonic-mean GTEPS. nodes must be a power of two so weak-scaling graph
// sizes stay exact.
func MeasureBFS(spec runspec.Spec, nodes, perNodeLog int, transport core.Transport, engine perf.Engine, roots int, seed int64) *Measurement {
	m := &Measurement{
		Nodes:           nodes,
		PerNodeVertices: int64(1) << uint(perNodeLog),
		Transport:       transport,
		Engine:          engine,
	}
	if nodes <= 0 || bits.OnesCount(uint(nodes)) != 1 {
		m.Err = fmt.Errorf("experiments: node count %d must be a power of two", nodes)
		return m
	}
	if roots <= 0 {
		roots = 2
	}
	scale := perNodeLog + bits.TrailingZeros(uint(nodes))

	cfg := scaledConfig(nodes)
	cfg.Transport, cfg.Engine = transport, engine

	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: seed})
	if err != nil {
		m.Err = err
		return m
	}
	rootList, err := graph500.SampleRoots(g, roots, seed)
	if err != nil {
		m.Err = err
		return m
	}
	m.GTEPS, m.Err = harmonicGTEPS(spec.Apply(cfg), g, rootList, func(i int, res *core.Result) {
		if i == 0 {
			m.Edges = res.TraversedEdges
			m.Levels = res.Levels
		}
	})
	return m
}

// scaledConfig is the production configuration (core.DefaultConfig) on
// the scaled-down super-node size every functional sweep uses.
func scaledConfig(nodes int) core.Config {
	cfg := core.DefaultConfig(nodes)
	cfg.SuperNodeSize = scaledSuperNodeSize
	return cfg
}

// harmonicGTEPS runs every root on one runner for cfg and returns the
// harmonic-mean GTEPS over all roots (a root with zero GTEPS adds nothing
// to the sum but still counts), handing each result to each (may be nil)
// for the caller's own tallies. The first failure ends the measurement.
func harmonicGTEPS(cfg core.Config, g *graph.CSR, roots []graph.Vertex, each func(i int, res *core.Result)) (float64, error) {
	runner, err := core.NewRunner(cfg, g)
	if err != nil {
		return 0, err
	}
	var invSum float64
	for i, root := range roots {
		res, err := runner.Run(root)
		if err != nil {
			return 0, err
		}
		if res.GTEPS > 0 {
			invSum += 1 / res.GTEPS
		}
		if each != nil {
			each(i, res)
		}
	}
	if invSum == 0 {
		return 0, nil
	}
	return float64(len(roots)) / invSum, nil
}
