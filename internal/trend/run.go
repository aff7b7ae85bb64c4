package trend

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// ScenarioSpec is one configuration of the standard sweep.
type ScenarioSpec struct {
	Name      string
	Scale     int
	Nodes     int
	SuperSize int
	Roots     int
	Transport core.Transport
	Engine    perf.Engine
	// Kernel selects a non-BFS kernel ("" runs the Graph500 BFS sweep;
	// "wcc" runs one WCC fixpoint). Roots is ignored for kernel scenarios.
	Kernel string
	// CheckpointEvery arms level-boundary checkpointing (0 = off). The
	// captures are in-memory only — no file is written — so the scenario
	// measures the capture cost itself, not disk bandwidth. Checkpointing
	// never perturbs the modelled machine, so a checkpoint twin must match
	// its base scenario on every modelled metric; only host_seconds (a
	// non-gating row) may move.
	CheckpointEvery int
	// Codec / CodecBackward name the wire codecs ("" = raw; resolved via
	// comm.CodecByName). A codec twin of a raw scenario demonstrates the
	// wire-byte savings: network_bytes drops and, in network-bound
	// configurations, modelled GTEPS rises.
	Codec         string
	CodecBackward string
}

// DefaultScenarios is the standard sweep: the paper's flagship transport
// (relay + CPE), its two ablations (MPE engine, direct transport), and a
// wider machine to exercise inter-super-node traffic. Scales are kept
// small enough that the whole sweep runs in seconds, with validation on.
func DefaultScenarios() []ScenarioSpec {
	return []ScenarioSpec{
		{Name: "relay-cpe-s14-n16", Scale: 14, Nodes: 16, SuperSize: 4, Roots: 8,
			Transport: core.TransportRelay, Engine: perf.EngineCPE},
		{Name: "relay-mpe-s12-n16", Scale: 12, Nodes: 16, SuperSize: 4, Roots: 4,
			Transport: core.TransportRelay, Engine: perf.EngineMPE},
		{Name: "direct-cpe-s12-n16", Scale: 12, Nodes: 16, SuperSize: 4, Roots: 4,
			Transport: core.TransportDirect, Engine: perf.EngineCPE},
		{Name: "relay-cpe-s12-n64", Scale: 12, Nodes: 64, SuperSize: 8, Roots: 4,
			Transport: core.TransportRelay, Engine: perf.EngineCPE},
		// One rootless kernel at the standard worker width: tracks the WCC
		// round pipeline (and, through host_seconds, the handler fan-out)
		// the same way the BFS scenarios track the traversal pipeline.
		{Name: "wcc-relay-cpe-s12-n16-w4", Scale: 12, Nodes: 16, SuperSize: 4,
			Transport: core.TransportRelay, Engine: perf.EngineCPE, Kernel: "wcc"},
		// The checkpoint twin of direct-cpe-s12-n16: every level boundary
		// captures a checkpoint in memory. Its modelled metrics must equal
		// the base scenario's exactly (+0.0% — checkpointing is host-only);
		// host_seconds tracks the capture overhead as a non-gating row.
		{Name: "direct-cpe-s12-n16-ckpt1", Scale: 12, Nodes: 16, SuperSize: 4, Roots: 4,
			Transport: core.TransportDirect, Engine: perf.EngineCPE, CheckpointEvery: 1},
		// Codec twins of the flagship scenario: the adaptive codec on the
		// dense backward (bottom-up) channel is the paper-motivated win —
		// bitmap-coded backward batches shrink network_bytes, and in this
		// network-bound configuration the modelled GTEPS rises versus the
		// raw flagship above. The varint-delta twin is the non-adaptive
		// reference point.
		{Name: "relay-cpe-s14-n16-adaptiveB", Scale: 14, Nodes: 16, SuperSize: 4, Roots: 8,
			Transport: core.TransportRelay, Engine: perf.EngineCPE, CodecBackward: "adaptive"},
		{Name: "relay-cpe-s14-n16-varintB", Scale: 14, Nodes: 16, SuperSize: 4, Roots: 8,
			Transport: core.TransportRelay, Engine: perf.EngineCPE, CodecBackward: "varint-delta"},
	}
}

// Options parameterizes Collect.
type Options struct {
	// Seed drives every scenario (default 1). The modelled numbers are a
	// pure function of (seed, scenario), so snapshots taken at different
	// commits with the same seed are directly comparable.
	Seed int64
	// Scenarios overrides DefaultScenarios.
	Scenarios []ScenarioSpec
	// GitDir is where to resolve HEAD for provenance ("" = ".").
	GitDir string
}

// Collect runs the sweep and assembles a snapshot.
func Collect(opts Options) (*Snapshot, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	scenarios := opts.Scenarios
	if scenarios == nil {
		scenarios = DefaultScenarios()
	}
	start := time.Now()
	snap := &Snapshot{
		SchemaVersion: SchemaVersion,
		CreatedUnix:   time.Now().Unix(),
		GitSHA:        gitSHA(opts.GitDir),
		GoVersion:     runtime.Version(),
	}
	for _, spec := range scenarios {
		sc, err := runScenario(spec, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("trend: scenario %s: %w", spec.Name, err)
		}
		snap.Scenarios = append(snap.Scenarios, sc)
	}
	snap.HostSeconds = time.Since(start).Seconds()
	return snap, nil
}

// runScenario executes one configuration with a fresh observer so its
// counters are not polluted by the other scenarios.
func runScenario(spec ScenarioSpec, seed int64) (Scenario, error) {
	if spec.Kernel != "" {
		return runKernelScenario(spec, seed)
	}
	codec, err := comm.CodecByName(spec.Codec)
	if err != nil {
		return Scenario{}, err
	}
	codecBackward, err := comm.CodecByName(spec.CodecBackward)
	if err != nil {
		return Scenario{}, err
	}
	observer := obs.New()
	machine := scenarioMachine(spec)
	machine.Obs = observer
	// In-memory level-boundary checkpointing (no CheckpointPath, so
	// nothing hits disk). Zero for every scenario but the -ckpt twin.
	machine.CheckpointEvery = spec.CheckpointEvery
	machine.Codec, machine.CodecBackward = codec, codecBackward
	hostStart := time.Now()
	report, err := graph500.Run(graph500.BenchConfig{
		Scale:      spec.Scale,
		EdgeFactor: 16,
		Seed:       seed,
		Roots:      spec.Roots,
		Machine:    machine,
	})
	if err != nil {
		return Scenario{}, err
	}

	snap := observer.Metrics.Snapshot()
	counter := func(name string) int64 { return snap.Counters[name] }
	var messages int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "comm.messages.") {
			messages += v
		}
	}
	sc := Scenario{
		Name:            spec.Name,
		Scale:           spec.Scale,
		Nodes:           spec.Nodes,
		SuperSize:       spec.SuperSize,
		Roots:           spec.Roots,
		Transport:       spec.Transport.String(),
		Engine:          spec.Engine.String(),
		CheckpointEvery: spec.CheckpointEvery,
		Codec:           spec.Codec,
		CodecBackward:   spec.CodecBackward,

		GTEPS:         report.GTEPSHarmonicMean(),
		KernelSeconds: report.KernelTime.Mean,

		NetworkBytes:    counter("comm.network.bytes"),
		NetworkMessages: messages,
		RelayPairBytes:  counter("comm.relay.pair_bytes"),
		MaxConnections:  snap.Gauges["comm.connections.max"],

		HostSeconds: time.Since(hostStart).Seconds(),
	}
	if runs := counter("bfs.runs"); runs > 0 {
		sc.Levels = float64(counter("bfs.levels")) / float64(runs)
		sc.BottomUpLevels = float64(counter("bfs.levels.bottomup")) / float64(runs)
	}
	if messages > 0 {
		sc.AvgMessageBytes = float64(sc.NetworkBytes) / float64(messages)
	}
	if traces := observer.Trace.Runs(); len(traces) > 0 {
		for _, lv := range traces[0].Levels {
			sc.PerLevel = append(sc.PerLevel, LevelTiming{
				Level:            lv.Level,
				Direction:        lv.Direction,
				WallMicros:       lv.WallSeconds * 1e6,
				NetworkBytes:     lv.NetworkBytes,
				FrontierVertices: lv.FrontierVertices,
			})
		}
	}
	return sc, nil
}

// scenarioMachine is the production configuration (core.DefaultConfig)
// on the scenario's machine shape. Worker pools leave every modelled
// number bit-identical, so a fixed width keeps snapshots comparable while
// exercising the parallel paths; only host_seconds can move with it.
func scenarioMachine(spec ScenarioSpec) core.Config {
	machine := core.DefaultConfig(spec.Nodes)
	machine.SuperNodeSize = spec.SuperSize
	machine.Transport, machine.Engine = spec.Transport, spec.Engine
	machine.Workers = 4
	return machine
}

// runKernelScenario runs one rootless kernel to its fixpoint and fills
// the scenario from the run's own accounting (RunInfo carries the
// modelled totals directly, so no observer is needed).
func runKernelScenario(spec ScenarioSpec, seed int64) (Scenario, error) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: spec.Scale, Seed: seed})
	if err != nil {
		return Scenario{}, err
	}
	machine := scenarioMachine(spec)
	hostStart := time.Now()
	var info *algos.RunInfo
	switch spec.Kernel {
	case "wcc":
		res, err := algos.WCC(machine, g)
		if err != nil {
			return Scenario{}, err
		}
		info = res.Info
	default:
		return Scenario{}, fmt.Errorf("unknown kernel %q", spec.Kernel)
	}

	var edges int64
	for _, s := range info.Levels {
		edges += s.FrontierEdges
	}
	sc := Scenario{
		Name:      spec.Name,
		Scale:     spec.Scale,
		Nodes:     spec.Nodes,
		SuperSize: spec.SuperSize,
		Transport: spec.Transport.String(),
		Engine:    spec.Engine.String(),
		Kernel:    spec.Kernel,

		GTEPS:         info.MTEPS(edges) / 1e3,
		KernelSeconds: info.Time,
		Levels:        float64(info.Rounds),

		NetworkBytes:    info.NetworkBytes,
		NetworkMessages: info.NetworkMessages,
		MaxConnections:  int64(info.MaxConnections),

		HostSeconds: time.Since(hostStart).Seconds(),
	}
	if info.NetworkMessages > 0 {
		sc.AvgMessageBytes = float64(info.NetworkBytes) / float64(info.NetworkMessages)
	}
	return sc, nil
}

// gitSHA resolves HEAD best-effort; provenance only, never fatal.
func gitSHA(dir string) string {
	if dir == "" {
		dir = "."
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
