// Command swbfs-bench regenerates the paper's tables and figures on the
// simulated machine. Each subcommand prints one artifact; `all` prints
// everything in paper order.
//
//	swbfs-bench table1    machine specification (Table 1)
//	swbfs-bench fig3      DMA bandwidth vs chunk size (Figure 3)
//	swbfs-bench fig5      memory bandwidth vs CPE count (Figure 5)
//	swbfs-bench regbus    contention-free shuffle bandwidth (Section 4.3)
//	swbfs-bench relaybw   relay vs direct big-message bandwidth (Section 4.4)
//	swbfs-bench msgcount  connection & MPI memory scaling (Section 4.4)
//	swbfs-bench fig11     technique comparison sweep (Figure 11)
//	swbfs-bench fig12     weak scaling sweep (Figure 12)
//	swbfs-bench strong    strong-scaling complement to Figure 12
//	swbfs-bench table2    cross-system comparison (Table 2)
//	swbfs-bench headline  full-machine GTEPS projection
//	swbfs-bench ablations design-choice ablation study
//	swbfs-bench policy    direction-policy threshold sensitivity
//	swbfs-bench all       everything
//
// Use -quick for smaller sweeps, -full for larger ones, and
// -format csv|json for machine-readable output. The run flags it shares
// with cmd/graph500 (internal/runspec) reach every functional
// measurement of every subcommand.
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"

	"swbfs/internal/core"
	"swbfs/internal/experiments"
	"swbfs/internal/graph"
	"swbfs/internal/runspec"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "small sweeps (seconds)")
		full   = flag.Bool("full", false, "large sweeps (minutes; up to 256 functional nodes)")
		seed   = flag.Int64("seed", 20160624, "deterministic seed")
		roots  = flag.Int("roots", 0, "BFS roots per data point (0 = per-experiment default)")
		format = flag.String("format", "text", "output format: text | csv | json")
	)
	spec := runspec.Bind(flag.CommandLine, "swbfs-bench")
	flag.Parse()
	if args := flag.NArg(); spec.Resume == "" && args != 1 || spec.Resume != "" && args != 0 {
		usage()
	}
	spec.Start()

	fig11opts := experiments.Fig11Options{Seed: *seed, Roots: *roots}
	fig12opts := experiments.Fig12Options{Seed: *seed, Roots: *roots}
	headlineLog := 13
	switch {
	case *quick:
		fig11opts.FunctionalNodes = []int{1, 4, 16}
		fig11opts.PerNodeLog = 11
		fig12opts.FunctionalNodes = []int{4, 16}
		fig12opts.PerNodeLogs = []int{7, 9, 11}
		headlineLog = 11
	case *full:
		fig11opts.FunctionalNodes = []int{1, 4, 16, 64, 256}
		fig12opts.FunctionalNodes = []int{4, 16, 64, 256}
	}

	emit := func(t *experiments.Table) {
		switch *format {
		case "csv":
			if err := t.WriteCSV(os.Stdout); err != nil {
				spec.Fatal(fmt.Errorf("csv: %w", err))
			}
		case "json":
			if err := t.WriteJSON(os.Stdout); err != nil {
				spec.Fatal(fmt.Errorf("json: %w", err))
			}
		default:
			t.Print(os.Stdout)
		}
	}

	sweep := func(name string) {
		switch name {
		case "table1":
			emit(experiments.Table1())
		case "fig3":
			emit(experiments.Fig3())
		case "fig5":
			emit(experiments.Fig5())
		case "regbus":
			t, err := experiments.RegBus(0)
			if err != nil {
				spec.Fatal(fmt.Errorf("regbus: %w", err))
			}
			emit(t)
		case "relaybw":
			emit(experiments.RelayBW())
		case "msgcount":
			emit(experiments.MsgCount())
		case "fig11":
			emit(experiments.Fig11(*spec, fig11opts))
		case "fig12":
			emit(experiments.Fig12(*spec, fig12opts))
		case "strong":
			emit(experiments.StrongScaling(*spec, experiments.StrongOptions{Seed: *seed, Roots: *roots, Quick: *quick}))
		case "table2":
			_, proj := experiments.Headline(*spec, headlineLog, *roots, *seed)
			emit(experiments.Table2(proj))
		case "ablations":
			ablOpts := experiments.AblationOptions{Seed: *seed, Roots: *roots}
			if *quick {
				ablOpts.Scale = 13
			}
			t, err := experiments.Ablations(*spec, ablOpts)
			if err != nil {
				spec.Fatal(fmt.Errorf("ablations: %w", err))
			}
			emit(t)
		case "policy":
			polOpts := experiments.PolicySweepOptions{Seed: *seed, Roots: *roots}
			if *quick {
				polOpts.Scale = 12
			}
			t, err := experiments.PolicySweep(*spec, polOpts)
			if err != nil {
				spec.Fatal(fmt.Errorf("policy: %w", err))
			}
			emit(t)
		case "headline":
			m, proj := experiments.Headline(*spec, headlineLog, *roots, *seed)
			if m.Crashed() {
				spec.Fatal(fmt.Errorf("headline measurement failed: %w", m.Err))
			}
			fmt.Printf("functional: %d nodes, %d vtx/node, %.3f GTEPS (measured)\n",
				m.Nodes, m.PerNodeVertices, m.GTEPS)
			if proj.Crashed() {
				spec.Fatal(fmt.Errorf("projection failed: %w", proj.Err))
			}
			fmt.Printf("projected:  %d nodes, %.1f GTEPS (modelled)\n", proj.Nodes, proj.GTEPS)
			fmt.Printf("paper:      40,768 nodes, 23755.7 GTEPS (measured on TaihuLight)\n")
		default:
			usage()
		}
	}

	switch cmd := flag.Arg(0); {
	case spec.Resume != "":
		resumeBFS(spec, *seed)
	case cmd == "all":
		for _, name := range []string{
			"table1", "fig3", "fig5", "regbus", "relaybw", "msgcount",
			"fig11", "fig12", "strong", "table2", "headline", "ablations", "policy",
		} {
			sweep(name)
			fmt.Println()
		}
	default:
		sweep(cmd)
	}
	spec.Finish()
}

// resumeBFS continues an interrupted functional BFS run from a
// level-boundary checkpoint file (see docs/CHAOS.md "Checkpoint &
// resume"). The Kronecker graph is rebuilt from -seed and the
// checkpoint's vertex count — the checkpoint's machine fingerprint
// rejects a mismatched graph. The finished run is bitwise identical to an
// uninterrupted one.
func resumeBFS(spec *runspec.Spec, seed int64) {
	c, cfg, err := spec.OpenResume()
	if err != nil {
		spec.Fatal(err)
	}
	n := c.Config.GraphN
	if n <= 0 || n&(n-1) != 0 {
		spec.Fatal(fmt.Errorf("checkpoint vertex count %d is not a power of two — not a swbfs-bench Kronecker run", n))
	}
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: bits.TrailingZeros64(uint64(n)), Seed: seed})
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
	fmt.Printf("resumed bfs: root %d, %d vertices, visited %d, traversed %d edges, %d levels, %.3f GTEPS (modelled)\n",
		c.Root, g.N, res.Visited, res.TraversedEdges, len(res.Levels), res.GTEPS)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: swbfs-bench [-quick|-full] [-seed N] [-roots N] [-format text|csv|json] <table1|fig3|fig5|regbus|relaybw|msgcount|fig11|fig12|strong|table2|headline|ablations|policy|all>")
	fmt.Fprintln(os.Stderr, "       swbfs-bench -resume <ckpt.json> [-seed N]")
	os.Exit(2)
}
