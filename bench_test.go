package swbfs

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (regenerating the same rows/series on the simulated
// machine) plus ablations for the design choices DESIGN.md calls out.
// Custom metrics carry the experiment outputs: modelled GTEPS
// ("gteps-modelled"), modelled bandwidths ("GB/s-modelled") and traffic.
// Host ns/op measures simulator cost, not machine time.

import (
	"fmt"
	"math/rand"
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/experiments"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/perf"
	"swbfs/internal/runspec"
	"swbfs/internal/shuffle"
	"swbfs/internal/sw"
)

// BenchmarkDMAChunkSize regenerates Figure 3: cluster DMA bandwidth vs
// chunk size (with the MPE curve for contrast).
func BenchmarkDMAChunkSize(b *testing.B) {
	for chunk := int64(8); chunk <= 16384; chunk *= 2 {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = sw.ClusterDMABandwidth(chunk)
			}
			b.ReportMetric(bw/1e9, "GB/s-modelled")
			b.ReportMetric(sw.MPEBandwidth(chunk)/1e9, "GB/s-mpe")
		})
	}
}

// BenchmarkDMACPECount regenerates Figure 5: bandwidth vs participating
// CPEs at 256-byte chunks.
func BenchmarkDMACPECount(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("cpes=%d", n), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = sw.DMABandwidth(256, n)
			}
			b.ReportMetric(bw/1e9, "GB/s-modelled")
		})
	}
}

// BenchmarkRegisterShuffle regenerates the Section 4.3 measurement: the
// cycle-level contention-free shuffle against its 14.5 GB/s ceiling
// (paper measures 10 GB/s).
func BenchmarkRegisterShuffle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const records = 8192
	recs := make([]shuffle.Record, records)
	for i := range recs {
		recs[i] = shuffle.Record{Dest: rng.Intn(64), Payload: [2]uint64{rng.Uint64(), rng.Uint64()}}
	}
	var bw float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := shuffle.RunMesh(shuffle.DefaultLayout(), recs, 64)
		if err != nil {
			b.Fatal(err)
		}
		bw = res.Throughput()
	}
	b.ReportMetric(bw/1e9, "GB/s-modelled")
	b.ReportMetric(sw.ShuffleTheoreticalBandwidth/1e9, "GB/s-ceiling")
	b.SetBytes(records * shuffle.RecordBytes)
}

// BenchmarkRelayBandwidth regenerates the Section 4.4 relay-overhead test
// (direct vs via-relay big messages; paper: both ~1.2 GB/s per node).
func BenchmarkRelayBandwidth(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RelayBW()
	}
	_ = tab
	b.ReportMetric(fabric.EffectiveNodeBandwidth/1e9, "GB/s-per-node")
}

// BenchmarkConnectionScaling regenerates the Section 4.4 arithmetic:
// per-node MPI connection memory, direct vs group-based, at the paper's
// 40,000-node point.
func BenchmarkConnectionScaling(b *testing.B) {
	var direct, relay int64
	for i := 0; i < b.N; i++ {
		direct = 40000 * 100 << 10           // one connection per peer
		relay = int64(200+200-1) * 100 << 10 // N + M - 1 with 200x200 groups
	}
	b.ReportMetric(float64(direct)/float64(1<<30), "GB-direct")
	b.ReportMetric(float64(relay)/float64(1<<20), "MB-relay")
}

// benchBFS runs a machine configuration over a prebuilt graph and reports
// the modelled GTEPS; host ns/op measures the simulator.
func benchBFS(b *testing.B, cfg core.Config, scale int) {
	b.Helper()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: scale, Seed: 101})
	if err != nil {
		b.Fatal(err)
	}
	runner, err := core.NewRunner(cfg, g)
	if err != nil {
		b.Skipf("configuration impossible (expected at scale): %v", err)
	}
	_, root := g.MaxDegree()
	var gteps float64
	var edges int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(root)
		if err != nil {
			b.Fatalf("simulated machine failure: %v", err)
		}
		gteps = res.GTEPS
		edges = res.TraversedEdges
	}
	b.ReportMetric(gteps, "gteps-modelled")
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkFig11Techniques regenerates Figure 11's four lines at a
// functional node count (run `swbfs-bench fig11` for the full sweep with
// projections to 40,960 nodes).
func BenchmarkFig11Techniques(b *testing.B) {
	cases := []struct {
		name      string
		transport core.Transport
		engine    perf.Engine
	}{
		{"DirectMPE", core.TransportDirect, perf.EngineMPE},
		{"DirectCPE", core.TransportDirect, perf.EngineCPE},
		{"RelayMPE", core.TransportRelay, perf.EngineMPE},
		{"RelayCPE", core.TransportRelay, perf.EngineCPE},
	}
	// 8 nodes x 2^14 vertices/node keeps the run bandwidth-bound (the
	// Figure 11 regime: the paper used 16M vertices per node) rather than
	// latency-bound, so the CPE/MPE gap is visible.
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			benchBFS(b, core.Config{
				Nodes: 8, SuperNodeSize: 4,
				Transport: tc.transport, Engine: tc.engine,
				DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true,
			}, 17)
		})
	}
}

// BenchmarkFig12WeakScaling regenerates Figure 12's weak-scaling points:
// per-node problem sizes in the paper's 1:4:16 ratio at two node counts.
func BenchmarkFig12WeakScaling(b *testing.B) {
	for _, nodes := range []int{4, 16} {
		for _, perNodeLog := range []int{9, 11, 13} {
			scale := perNodeLog
			for n := nodes; n > 1; n /= 2 {
				scale++
			}
			b.Run(fmt.Sprintf("nodes=%d/vtxPerNode=%d", nodes, 1<<perNodeLog), func(b *testing.B) {
				benchBFS(b, core.Config{
					Nodes: nodes, SuperNodeSize: 4,
					Transport: core.TransportRelay, Engine: perf.EngineCPE,
					DirectionOptimized: true, HubPrefetch: true, SmallMessageMPE: true,
				}, scale)
			})
		}
	}
}

// BenchmarkTable2Headline reproduces the headline pipeline: a functional
// Relay-CPE measurement projected to the paper's 40,768 nodes (Table 2 row).
func BenchmarkTable2Headline(b *testing.B) {
	var proj float64
	for i := 0; i < b.N; i++ {
		m, p := experiments.Headline(runspec.Spec{}, 11, 1, 101)
		if m.Crashed() {
			b.Fatal(m.Err)
		}
		if p.Crashed() {
			b.Fatal(p.Err)
		}
		proj = p.GTEPS
	}
	b.ReportMetric(proj, "gteps-modelled-40768")
	b.ReportMetric(23755.7, "gteps-paper")
}

// BenchmarkGraph500 runs the full benchmark pipeline (generation,
// construction, kernel, validation) end to end.
func BenchmarkGraph500(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := graph500.Run(graph500.BenchConfig{
			Scale: 13, Seed: 5, Roots: 4,
			Machine: core.DefaultConfig(4),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(report.GTEPSHarmonicMean(), "gteps-modelled")
		}
	}
}

// Ablation benches: each toggles one design choice on the production
// configuration and reports the modelled GTEPS delta.

func ablationConfig() core.Config {
	cfg := core.DefaultConfig(8)
	cfg.SuperNodeSize = 4
	return cfg
}

// BenchmarkAblationDirectionOpt: hybrid policy vs always top-down (the
// paper credits prior heterogeneous systems' losses to its absence).
func BenchmarkAblationDirectionOpt(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		b.Run(fmt.Sprintf("directionOpt=%v", enabled), func(b *testing.B) {
			cfg := ablationConfig()
			cfg.DirectionOptimized = enabled
			benchBFS(b, cfg, 15)
		})
	}
}

// BenchmarkAblationHubPrefetch: degree-aware hub prefetch on/off.
func BenchmarkAblationHubPrefetch(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		b.Run(fmt.Sprintf("hubPrefetch=%v", enabled), func(b *testing.B) {
			cfg := ablationConfig()
			cfg.HubPrefetch = enabled
			benchBFS(b, cfg, 15)
		})
	}
}

// BenchmarkAblationSmallMessageMPE: the sub-1KB MPE fast path on/off.
func BenchmarkAblationSmallMessageMPE(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		b.Run(fmt.Sprintf("smallMsgMPE=%v", enabled), func(b *testing.B) {
			cfg := ablationConfig()
			cfg.SmallMessageMPE = enabled
			benchBFS(b, cfg, 15)
		})
	}
}

// BenchmarkAblationGroupShape: relay group geometry (N x M) sweep.
func BenchmarkAblationGroupShape(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("groupM=%d", m), func(b *testing.B) {
			cfg := ablationConfig()
			cfg.Nodes = 16
			cfg.GroupM = m
			benchBFS(b, cfg, 15)
		})
	}
}

// BenchmarkAblationCompression: the paper's future-work integration
// (Section 7) — varint-delta message compression on the wire.
func BenchmarkAblationCompression(b *testing.B) {
	for _, compressed := range []bool{false, true} {
		b.Run(fmt.Sprintf("compression=%v", compressed), func(b *testing.B) {
			cfg := ablationConfig()
			if compressed {
				cfg.Codec = comm.VarintDeltaCodec{}
			}
			benchBFS(b, cfg, 15)
		})
	}
}

// BenchmarkOtherAlgorithms: the Section 8 transfer claim — SSSP, WCC,
// PageRank and K-core on the same substrate, production configuration.
func BenchmarkOtherAlgorithms(b *testing.B) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 14, Seed: 301})
	if err != nil {
		b.Fatal(err)
	}
	wg, err := graph.GenerateWeights(g, 64, 301)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ablationConfig()
	_, root := g.MaxDegree()

	b.Run("SSSP", func(b *testing.B) {
		var mteps float64
		for i := 0; i < b.N; i++ {
			res, err := algos.SSSP(cfg, wg, root)
			if err != nil {
				b.Fatal(err)
			}
			mteps = res.Info.MTEPS(res.Relaxations)
		}
		b.ReportMetric(mteps, "mteps-modelled")
	})
	b.Run("DeltaSSSP", func(b *testing.B) {
		var mteps float64
		for i := 0; i < b.N; i++ {
			res, err := algos.DeltaSSSP(cfg, wg, root, 16)
			if err != nil {
				b.Fatal(err)
			}
			mteps = res.Info.MTEPS(res.Relaxations)
		}
		b.ReportMetric(mteps, "mteps-modelled")
	})
	b.Run("WCC", func(b *testing.B) {
		var mteps float64
		for i := 0; i < b.N; i++ {
			res, err := algos.WCC(cfg, g)
			if err != nil {
				b.Fatal(err)
			}
			mteps = res.Info.MTEPS(g.NumEdges())
		}
		b.ReportMetric(mteps, "mteps-modelled")
	})
	b.Run("PageRank", func(b *testing.B) {
		var mteps float64
		for i := 0; i < b.N; i++ {
			res, err := algos.PageRank(cfg, g, 5, 0)
			if err != nil {
				b.Fatal(err)
			}
			mteps = res.Info.MTEPS(5 * g.NumEdges())
		}
		b.ReportMetric(mteps, "mteps-modelled")
	})
	b.Run("KCore", func(b *testing.B) {
		var mteps float64
		for i := 0; i < b.N; i++ {
			res, err := algos.KCore(cfg, g, 8)
			if err != nil {
				b.Fatal(err)
			}
			mteps = res.Info.MTEPS(g.NumEdges())
		}
		b.ReportMetric(mteps, "mteps-modelled")
	})
	b.Run("Betweenness", func(b *testing.B) {
		sources := []graph.Vertex{root}
		var mteps float64
		for i := 0; i < b.N; i++ {
			res, err := algos.Betweenness(cfg, g, sources)
			if err != nil {
				b.Fatal(err)
			}
			mteps = res.Info.MTEPS(2 * g.NumEdges()) // forward + backward sweep
		}
		b.ReportMetric(mteps, "mteps-modelled")
	})
}

// BenchmarkKroneckerGenerate measures the host-side generator (step 1 of
// the benchmark) for throughput regressions.
func BenchmarkKroneckerGenerate(b *testing.B) {
	cfg := graph.KroneckerConfig{Scale: 16, Seed: 3}
	b.SetBytes(cfg.NumEdges() * 16)
	for i := 0; i < b.N; i++ {
		if _, err := graph.GenerateKronecker(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSRConstruction measures graph construction (step 3).
func BenchmarkCSRConstruction(b *testing.B) {
	cfg := graph.KroneckerConfig{Scale: 16, Seed: 3}
	edges, err := graph.GenerateKronecker(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(edges)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.BuildCSR(cfg.NumVertices(), edges); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidation measures the Graph500 validator (step 5), sequential
// versus the Section 5 parallel verification.
func BenchmarkValidation(b *testing.B) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 14, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	_, root := g.MaxDegree()
	parent, _ := core.ReferenceBFS(g, root)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph500.Validate(g, root, parent); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph500.ValidateParallel(g, root, parent, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPartition: the Section 5 "balance the graph
// partitioning" refinement versus the reference layouts.
func BenchmarkAblationPartition(b *testing.B) {
	for _, strat := range []core.PartitionStrategy{
		core.PartitionRoundRobin, core.PartitionBlock, core.PartitionDegreeBalanced,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			cfg := ablationConfig()
			cfg.Partition = strat
			benchBFS(b, cfg, 15)
		})
	}
}
