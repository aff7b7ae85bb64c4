package graph500

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
)

// DefaultRoots is the benchmark's search-key count (64 BFS runs).
const DefaultRoots = 64

// BenchConfig describes one full benchmark execution.
type BenchConfig struct {
	// Scale and EdgeFactor parametrize the Kronecker input. When Edges is
	// non-nil the benchmark runs on that raw edge list instead (NumVertices
	// must then be set) — the path cmd/graph500 -input uses.
	Scale      int
	EdgeFactor int
	// Edges optionally supplies a pre-generated edge list.
	Edges []graph.Edge
	// NumVertices is required with Edges.
	NumVertices int64
	// Seed makes the whole benchmark deterministic.
	Seed int64
	// Roots is the number of search keys (DefaultRoots if zero; smaller
	// values are useful for scaled-down sweeps).
	Roots int
	// SkipValidation skips step (5) — never do this for reported numbers;
	// exposed for timing-only sweeps exactly because validation is the
	// most expensive host-side step.
	SkipValidation bool
	// KeepLevels retains per-level statistics in each RootResult for
	// detailed reporting (PrintDetail).
	KeepLevels bool
	// Machine is the simulated machine configuration for the BFS kernel.
	Machine core.Config
}

// RootResult records one kernel invocation.
type RootResult struct {
	Root           graph.Vertex
	Visited        int64
	TraversedEdges int64
	Levels         int
	BottomUpLevels int
	Time           float64 // modelled kernel seconds
	TEPS           float64
	Validated      bool
	// LevelDetail is retained when BenchConfig.KeepLevels is set.
	LevelDetail []perf.LevelStats
}

// Report is the full benchmark outcome.
type Report struct {
	Config                BenchConfig
	NumVertices, NumEdges int64
	ConstructionSeconds   float64 // host-side, informational
	Runs                  []RootResult
	TEPS                  Summary // harmonic statistics over per-root TEPS
	KernelTime            Summary // arithmetic statistics over per-root times
}

// GTEPSHarmonicMean is the headline number (Graph500 ranks by the harmonic
// mean TEPS across the 64 roots).
func (r *Report) GTEPSHarmonicMean() float64 { return r.TEPS.Mean / 1e9 }

// Run executes the benchmark: (1) generate the edge list, (2) sample
// nontrivial search roots, (3) construct the CSR, (4) run the BFS kernel
// per root on the simulated machine, (5) validate every result, (6) compute
// statistics.
func Run(cfg BenchConfig) (*Report, error) {
	if cfg.Roots == 0 {
		cfg.Roots = DefaultRoots
	}
	edges := cfg.Edges
	numVertices := cfg.NumVertices
	if edges == nil {
		kcfg := graph.KroneckerConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}
		var err error
		edges, err = graph.GenerateKronecker(kcfg)
		if err != nil {
			return nil, err
		}
		numVertices = kcfg.NumVertices()
	} else if numVertices <= 0 {
		return nil, fmt.Errorf("graph500: NumVertices required with a supplied edge list")
	}

	start := time.Now()
	g, err := graph.BuildCSR(numVertices, edges)
	if err != nil {
		return nil, err
	}
	construction := time.Since(start).Seconds()

	roots, err := SampleRoots(g, cfg.Roots, cfg.Seed)
	if err != nil {
		return nil, err
	}

	runner, err := core.NewRunner(cfg.Machine, g)
	if err != nil {
		return nil, err
	}

	report := &Report{
		Config:              cfg,
		NumVertices:         g.N,
		NumEdges:            g.NumEdges() / 2,
		ConstructionSeconds: construction,
	}

	metrics := cfg.Machine.Obs.MetricsOf()

	var teps, times []float64
	for _, root := range roots {
		// The runner attaches one per-level RunTrace per root to the
		// observer; the harness adds the benchmark-level accounting.
		res, err := runner.Run(root)
		if err != nil {
			return nil, fmt.Errorf("graph500: BFS from root %d: %w", root, err)
		}
		rr := RootResult{
			Root:           root,
			Visited:        res.Visited,
			TraversedEdges: res.TraversedEdges,
			Levels:         len(res.Levels),
			BottomUpLevels: res.BottomUpLevels,
			Time:           res.Time,
			TEPS:           res.GTEPS * 1e9,
		}
		if cfg.KeepLevels {
			rr.LevelDetail = res.Levels
		}
		if !cfg.SkipValidation {
			// The parallel validator (Section 5's scaled verification).
			vstart := time.Now()
			if _, err := ValidateParallel(g, root, res.Parent, 0); err != nil {
				return nil, fmt.Errorf("graph500: validation failed for root %d: %w", root, err)
			}
			rr.Validated = true
			if metrics != nil {
				metrics.Counter("graph500.validations").Inc()
				metrics.Histogram("graph500.validation_us").Observe(time.Since(vstart).Microseconds())
			}
		}
		report.Runs = append(report.Runs, rr)
		teps = append(teps, rr.TEPS)
		times = append(times, rr.Time)
	}
	report.TEPS = Summarize(teps, true)
	report.KernelTime = Summarize(times, false)
	if metrics != nil {
		metrics.Gauge("graph500.num_vertices").Set(report.NumVertices)
		metrics.Gauge("graph500.num_undirected_edges").Set(report.NumEdges)
		metrics.Gauge("graph500.harmonic_mean_mteps").Set(int64(report.TEPS.Mean / 1e6))
	}
	return report, nil
}

// SampleRoots picks `count` distinct nontrivial search keys (vertices with
// at least one edge, per the specification) deterministically from seed.
func SampleRoots(g *graph.CSR, count int, seed int64) ([]graph.Vertex, error) {
	if count <= 0 {
		return nil, fmt.Errorf("graph500: root count %d", count)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x4772_6150_6835))
	seen := make(map[graph.Vertex]bool, count)
	roots := make([]graph.Vertex, 0, count)
	attempts := 0
	for len(roots) < count {
		attempts++
		if attempts > int(g.N)*4+1000 {
			// Fewer nontrivial vertices than requested roots: allow
			// repeats (tiny graphs in tests), still deterministic.
			if len(roots) == 0 {
				return nil, fmt.Errorf("graph500: no nontrivial vertices to use as roots")
			}
			for len(roots) < count {
				roots = append(roots, roots[len(roots)%len(roots)])
			}
			break
		}
		v := graph.Vertex(rng.Int63n(g.N))
		if seen[v] || g.Degree(v) == 0 {
			continue
		}
		seen[v] = true
		roots = append(roots, v)
	}
	return roots, nil
}

// Print renders the report in the spirit of the reference implementation's
// output block.
func (r *Report) Print(w io.Writer) {
	if r.Config.Edges != nil {
		fmt.Fprintf(w, "SCALE:                - (file input)\n")
		fmt.Fprintf(w, "edgefactor:           - (file input)\n")
	} else {
		fmt.Fprintf(w, "SCALE:                %d\n", r.Config.Scale)
		ef := r.Config.EdgeFactor
		if ef == 0 {
			ef = graph.DefaultEdgeFactor
		}
		fmt.Fprintf(w, "edgefactor:           %d\n", ef)
	}
	fmt.Fprintf(w, "NBFS:                 %d\n", len(r.Runs))
	fmt.Fprintf(w, "num_vertices:         %d\n", r.NumVertices)
	fmt.Fprintf(w, "num_undirected_edges: %d\n", r.NumEdges)
	fmt.Fprintf(w, "machine:              %s, %d nodes\n", r.Config.Machine.Name(), r.Config.Machine.Nodes)
	fmt.Fprintf(w, "construction_time:    %.4g s (host)\n", r.ConstructionSeconds)
	fmt.Fprintf(w, "bfs_time:             %s\n", r.KernelTime)
	fmt.Fprintf(w, "bfs_TEPS:             %s\n", r.TEPS)
	fmt.Fprintf(w, "harmonic_mean_GTEPS:  %.4f\n", r.GTEPSHarmonicMean())
}

// PrintDetail renders per-root rows and (when retained) per-level
// breakdowns: direction, critical-path work, traffic per link class.
func (r *Report) PrintDetail(w io.Writer) {
	r.Print(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "root       visited    edges      levels  bottomup  time(ms)   GTEPS")
	for _, rr := range r.Runs {
		fmt.Fprintf(w, "%-10d %-10d %-10d %-7d %-9d %-10.3f %.3f\n",
			rr.Root, rr.Visited, rr.TraversedEdges, rr.Levels, rr.BottomUpLevels,
			rr.Time*1e3, rr.TEPS/1e9)
		for _, l := range rr.LevelDetail {
			fmt.Fprintf(w, "    L%-2d %-9s work=%-10d sent=%-10d msgs=%-6d %s\n",
				l.Level, l.Direction, l.MaxNodeProcessedBytes, l.MaxNodeSentBytes,
				l.MaxNodeMessages, l.Net.String())
		}
	}
}
