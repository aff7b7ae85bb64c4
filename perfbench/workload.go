package main

import (
	"fmt"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// workload is one input the benchmark runs: a Kronecker graph, a machine
// shape and a kernel. Everything except the graph seed is fixed here; the
// seed is a benchmark argument.
type workload struct {
	name string

	scale     int
	nodes     int
	superSize int
	transport core.Transport
	// codecBackward names the backward-channel wire codec ("" = raw).
	codecBackward string
	// checkpointEvery arms in-memory level-boundary checkpointing.
	checkpointEvery int

	// graphs is how many distinct graphs, each derived from the run's
	// seed, one run cycles through. Averaging over several graphs, and
	// over the roots of each, keeps one seed's figures close to
	// another's; a single graph's component structure moves them by
	// several percent.
	graphs int
	// roots is the number of BFS roots per graph, all run in one checked
	// result; zero selects the PageRank kernel instead.
	roots int
	// iterations is the PageRank iteration count.
	iterations int

	// tailPercentile is the percentile kernel_ms_tail reports. It is fixed
	// per workload, at a rung a run of the benchmark's length fills with
	// at least twice the ten samples needed beyond it, so the reported
	// percentile does not change from run to run.
	tailPercentile int
}

func (w workload) isBFS() bool { return w.roots > 0 }

// workers is the per-module worker count of every workload. Holding it
// fixed keeps host times comparable across hosts with different core
// counts; modelled output does not depend on it.
const workers = 1

// workloads are the benchmark's inputs. Why each exists, and which layer
// it isolates, is recorded in README.md and BENCHMARK.json.
var workloads = []workload{
	{
		name:  "bfs-n64-relay",
		scale: 14, nodes: 64, superSize: 8, transport: core.TransportRelay,
		graphs: 16, roots: 8, tailPercentile: 95,
	},
	{
		name:  "bfs-n16-adaptive",
		scale: 16, nodes: 16, superSize: 4, transport: core.TransportRelay,
		codecBackward: "adaptive", graphs: 16, roots: 8, tailPercentile: 90,
	},
	{
		name:  "bfs-n16-ckpt",
		scale: 14, nodes: 16, superSize: 4, transport: core.TransportDirect,
		checkpointEvery: 1, graphs: 16, roots: 8, tailPercentile: 75,
	},
	{
		name:  "pagerank-n16",
		scale: 15, nodes: 16, superSize: 4, transport: core.TransportRelay,
		graphs: 4, iterations: 10, tailPercentile: 50,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) kronecker(seed int64) graph.KroneckerConfig {
	return graph.KroneckerConfig{Scale: w.scale, EdgeFactor: graph.DefaultEdgeFactor, Seed: seed}
}

// machine is the workload's simulated machine: the paper's production
// configuration (CPE engine, direction optimisation, hub prefetch, the
// small-message fast path) at the workload's shape. o may be nil.
func (w workload) machine(o *obs.Observer, checkpointEvery int) (core.Config, error) {
	backward, err := comm.CodecByName(w.codecBackward)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Nodes:              w.nodes,
		SuperNodeSize:      w.superSize,
		Transport:          w.transport,
		Engine:             perf.EngineCPE,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
		Workers:            workers,
		CodecBackward:      backward,
		CheckpointEvery:    checkpointEvery,
		Obs:                o,
	}, nil
}
