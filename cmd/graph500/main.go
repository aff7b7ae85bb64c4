// Command graph500 runs the full Graph500 benchmark on the simulated
// Sunway TaihuLight machine: Kronecker generation, graph construction,
// 64 rooted BFS runs on the configured machine, validation, and
// harmonic-mean TEPS reporting. The run flags it shares with
// cmd/swbfs-bench (-workers, -codec, -metrics, -trace-out, -chaos-seed,
// -checkpoint-every, -resume, ...) come from internal/runspec.
//
// Example:
//
//	graph500 -scale 18 -nodes 64 -transport relay -engine cpe
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
	"swbfs/internal/runspec"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "log2 of the vertex count")
		edgefactor = flag.Int("edgefactor", 16, "edges per vertex")
		nodes      = flag.Int("nodes", 16, "simulated compute nodes")
		superSize  = flag.Int("super", 16, "nodes per super node (fat-tree scaling)")
		roots      = flag.Int("roots", 64, "number of BFS roots (Graph500 uses 64)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		transport  = flag.String("transport", "relay", "messaging scheme: direct | relay")
		engine     = flag.String("engine", "cpe", "module processing: mpe | cpe")
		noOpt      = flag.Bool("no-direction-opt", false, "disable the hybrid top-down/bottom-up policy")
		noHubs     = flag.Bool("no-hub-prefetch", false, "disable degree-aware hub prefetching")
		noValidate = flag.Bool("skip-validation", false, "skip result validation (timing sweeps only)")
		input      = flag.String("input", "", "edge-list file to benchmark instead of generating (see -format)")
		format     = flag.String("format", "text", "input format: text | binary")
		vertices   = flag.Int64("vertices", 0, "vertex count for -input (0 = max vertex ID + 1)")
		verbose    = flag.Bool("verbose", false, "print per-root and per-level detail")
		trace      = flag.String("trace", "", "write per-root/per-level statistics as JSON lines to this file")
		kernel     = flag.String("kernel", "bfs", "benchmark kernel: bfs | sssp (Graph500 v3 second kernel)")
		delta      = flag.Int64("delta", 0, "sssp kernel: delta-stepping bucket width (0 = Bellman-Ford)")
	)
	spec := runspec.Bind(flag.CommandLine, "graph500")
	flag.Parse()
	spec.Start()

	machine := core.DefaultConfig(*nodes)
	machine.SuperNodeSize = *superSize
	machine.DirectionOptimized = !*noOpt
	machine.HubPrefetch = !*noHubs
	switch *transport {
	case "direct":
		machine.Transport = core.TransportDirect
	case "relay":
		machine.Transport = core.TransportRelay
	default:
		spec.Fatal(fmt.Errorf("unknown transport %q (want direct or relay)", *transport))
	}
	switch *engine {
	case "mpe":
		machine.Engine = perf.EngineMPE
	case "cpe":
		machine.Engine = perf.EngineCPE
	default:
		spec.Fatal(fmt.Errorf("unknown engine %q (want mpe or cpe)", *engine))
	}

	var c *ckpt.Checkpoint
	if spec.Resume != "" {
		var err error
		if c, machine, err = spec.OpenResume(); err != nil {
			spec.Fatal(err)
		}
	} else {
		machine = spec.Apply(machine)
	}
	if spec.Chaos == nil && spec.ChaosSeed != 0 {
		fmt.Fprintf(os.Stderr, "graph500: chaos plan from seed %d: %s\n", spec.ChaosSeed, machine.Chaos)
	}

	bench := graph500.BenchConfig{
		Scale:          *scale,
		EdgeFactor:     *edgefactor,
		Seed:           *seed,
		Roots:          *roots,
		SkipValidation: *noValidate,
		KeepLevels:     *verbose || *trace != "",
		Machine:        machine,
	}
	if *input != "" && (c != nil || *kernel == "bfs") {
		var err error
		if bench.Edges, bench.NumVertices, err = loadEdges(*input, *format, *vertices); err != nil {
			spec.Fatal(fmt.Errorf("loading %s: %w", *input, err))
		}
	}

	switch {
	case c != nil:
		resumeBFS(spec, c, bench)
	case *kernel == "sssp":
		report, err := graph500.RunSSSP(graph500.SSSPBenchConfig{
			Scale:      *scale,
			EdgeFactor: *edgefactor,
			Seed:       *seed,
			Roots:      *roots,
			Delta:      *delta,
			Machine:    machine,
		})
		if err != nil {
			spec.Fatal(fmt.Errorf("sssp benchmark failed: %w", err))
		}
		fmt.Printf("KERNEL:               sssp (delta=%d)\n", *delta)
		fmt.Printf("SCALE:                %d\n", *scale)
		fmt.Printf("NROOTS:               %d\n", len(report.Runs))
		fmt.Printf("num_vertices:         %d\n", report.NumVertices)
		fmt.Printf("num_undirected_edges: %d\n", report.NumEdges)
		fmt.Printf("machine:              %s, %d nodes\n", machine.Name(), machine.Nodes)
		fmt.Printf("sssp_time:            %s\n", report.KernelTime)
		fmt.Printf("sssp_TEPS:            %s\n", report.TEPS)
		fmt.Printf("harmonic_mean_GTEPS:  %.4f\n", report.GTEPSHarmonicMean())
	case *kernel == "bfs":
		report, err := graph500.Run(bench)
		if err != nil {
			spec.Fatal(fmt.Errorf("benchmark failed: %w", err))
		}
		if *verbose {
			report.PrintDetail(os.Stdout)
		} else {
			report.Print(os.Stdout)
		}
		if *trace != "" {
			if err := writeTrace(*trace, report); err != nil {
				spec.Fatal(fmt.Errorf("writing trace: %w", err))
			}
		}
	default:
		spec.Fatal(fmt.Errorf("unknown kernel %q (want bfs or sssp)", *kernel))
	}
	spec.Finish()
}

// resumeBFS continues an interrupted BFS run from its checkpoint on the
// machine configuration spec.OpenResume built for it (bench.Machine). The
// graph is rebuilt from the same generator flags (the checkpoint's
// fingerprint rejects a mismatched graph); the finished result is bitwise
// identical to what the uninterrupted run would have produced.
func resumeBFS(spec *runspec.Spec, c *ckpt.Checkpoint, bench graph500.BenchConfig) {
	cfg := bench.Machine
	var g *graph.CSR
	var err error
	if bench.Edges != nil {
		g, err = graph.BuildCSR(bench.NumVertices, bench.Edges)
	} else {
		g, err = graph.BuildKronecker(graph.KroneckerConfig{Scale: bench.Scale, EdgeFactor: bench.EdgeFactor, Seed: bench.Seed})
	}
	if err != nil {
		spec.Fatal(err)
	}
	runner, err := core.NewRunner(cfg, g)
	if err != nil {
		spec.Fatal(err)
	}
	res, err := runner.Resume(c)
	if err != nil {
		spec.Fatal(fmt.Errorf("resume failed: %w", err))
	}
	validated := "skipped"
	if !bench.SkipValidation {
		if _, err := graph500.ValidateParallel(g, graph.Vertex(c.Root), res.Parent, 0); err != nil {
			spec.Fatal(fmt.Errorf("validation failed for resumed root %d: %w", c.Root, err))
		}
		validated = "ok"
	}
	fmt.Printf("KERNEL:               bfs (resumed from level %d)\n", c.Level)
	fmt.Printf("root:                 %d\n", c.Root)
	fmt.Printf("num_vertices:         %d\n", g.N)
	fmt.Printf("num_undirected_edges: %d\n", g.NumEdges()/2)
	fmt.Printf("machine:              %s, %d nodes\n", cfg.Name(), cfg.Nodes)
	fmt.Printf("visited:              %d\n", res.Visited)
	fmt.Printf("traversed_edges:      %d\n", res.TraversedEdges)
	fmt.Printf("levels:               %d\n", len(res.Levels))
	fmt.Printf("bfs_time:             %.6f s (modelled)\n", res.Time)
	fmt.Printf("GTEPS:                %.4f\n", res.GTEPS)
	fmt.Printf("validation:           %s\n", validated)
}

// writeTrace dumps one JSON object per BFS run (with its per-level
// statistics) for external analysis tooling.
func writeTrace(path string, report *graph500.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, run := range report.Runs {
		if err := enc.Encode(run); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// loadEdges reads an edge list and infers the vertex count when not given.
func loadEdges(path, format string, vertices int64) ([]graph.Edge, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var edges []graph.Edge
	switch format {
	case "text":
		edges, err = graph.ReadEdgesText(f)
	case "binary":
		edges, err = graph.ReadEdgesBinary(f)
	default:
		return nil, 0, fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return nil, 0, err
	}
	if vertices == 0 {
		for _, e := range edges {
			if int64(e.From) >= vertices {
				vertices = int64(e.From) + 1
			}
			if int64(e.To) >= vertices {
				vertices = int64(e.To) + 1
			}
		}
	}
	return edges, vertices, nil
}
