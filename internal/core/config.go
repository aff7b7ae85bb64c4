// Package core implements the paper's primary contribution: a distributed,
// direction-optimizing, 1-D partitioned BFS running on the simulated
// Sunway TaihuLight machine, with the three key techniques —
//
//   - pipelined module mapping (BFS split into Forward/Backward
//     Generator/Relay/Handler modules, each module standing in for a CPE
//     cluster and running as its own goroutine per node, with dedicated
//     send/receive paths playing the MPEs of Figure 4/10);
//   - contention-free data shuffling (module work accounted through the
//     internal/shuffle engine with its SPM capacity constraints);
//   - group-based message batching (the relay transport of internal/comm).
//
// The engine runs functionally — real messages, real frontier updates,
// validated parent maps — while recording the traffic and work statistics
// that internal/perf folds into modelled GTEPS.
package core

import (
	"errors"
	"fmt"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
	"swbfs/internal/shuffle"
	"swbfs/internal/sw"
)

// Transport selects the messaging scheme of Figure 11.
type Transport int

const (
	// TransportDirect sends every message straight to its destination.
	TransportDirect Transport = iota
	// TransportRelay uses the paper's group-based message batching.
	TransportRelay
)

func (t Transport) String() string {
	if t == TransportRelay {
		return "relay"
	}
	return "direct"
}

// Defaults from Section 5 of the paper.
const (
	// DefaultHubsTopDown is the per-node hub count whose frontier bits are
	// prefetched for top-down levels (2^12).
	DefaultHubsTopDown = 1 << 12
	// DefaultHubsBottomUp is the per-node hub count for bottom-up levels
	// (2^14).
	DefaultHubsBottomUp = 1 << 14
	// DefaultAlpha and DefaultBeta are the direction-switch thresholds of
	// the Beamer et al. heuristic the paper's TRAVERSAL_POLICY follows.
	DefaultAlpha = 14.0
	DefaultBeta  = 24.0
)

// concurrentModules is how many module contexts a node keeps resident in
// CPE-cluster SPM at once (one per CPE cluster, Figure 10); it divides the
// per-module destination budget and is what caps Direct-CPE runs at 256
// nodes in Figure 11.
const concurrentModules = sw.CGsPerNode

// ErrCPESPM reports that the per-module shuffle destination buffers do not
// fit the CPE clusters' scratch-pad memory — the Direct-CPE crash beyond
// 256 nodes ("it crashes when the scale increases because of the
// limitation of SPM size on the CPEs").
var ErrCPESPM = errors.New("core: shuffle destinations exceed CPE SPM budget")

// Config describes one BFS machine configuration.
type Config struct {
	// Nodes is the simulated node count.
	Nodes int
	// SuperNodeSize scales the fat tree (0 = the machine's 256).
	SuperNodeSize int
	// Transport picks direct or relay messaging.
	Transport Transport
	// Engine picks MPE or CPE-cluster module processing.
	Engine perf.Engine
	// GroupM is the relay group width M (0 = DefaultGroupShape).
	GroupM int

	// DirectionOptimized enables the hybrid top-down/bottom-up policy;
	// when false every level is top-down (ablation baseline).
	DirectionOptimized bool
	// Alpha and Beta are the direction-switch thresholds (0 = defaults).
	Alpha, Beta float64

	// HubPrefetch enables degree-aware hub frontier prefetching.
	HubPrefetch bool
	// HubsTopDown and HubsBottomUp are machine-wide hub counts actually
	// indexed (0 = per-node defaults scaled by node count, capped by the
	// vertex count).
	HubsTopDown, HubsBottomUp int

	// SmallMessageMPE enables the "quick processing for small messages"
	// fast path (sub-1KB module inputs handled by the MPE directly).
	SmallMessageMPE bool

	// Workers is the per-module worker-goroutine count per simulated node
	// — the host stand-in for the lanes of the CPE cluster each module
	// owns. 0 derives a default from the host parallelism divided over
	// the node count; 1 is the serial path; higher values are clamped to
	// sw.CPEsPerCluster. BFS output (parent-tree validity, per-level
	// frontier sizes, modelled wire bytes) is bit-identical across worker
	// counts; only host wall time changes.
	Workers int

	// BatchBytes and MPIMemoryBudget tune the transport (0 = comm
	// defaults).
	BatchBytes      int64
	MPIMemoryBudget int64

	// Chaos, when non-nil, injects the plan's faults into every Run. The
	// plan is part of the run's identity the way KroneckerConfig.Shards
	// is part of a graph's: the same plan against the same configuration
	// reproduces the same injections bit-for-bit (see docs/CHAOS.md).
	Chaos *chaos.Plan

	// LevelTimeout arms the per-level watchdog: if no BFS level completes
	// for this long (host time), the run is aborted with ErrLevelTimeout
	// wrapped in an AbortError. 0 disables the watchdog.
	LevelTimeout time.Duration

	// FlightDump, when non-empty, is the file an aborted Run writes its
	// flight-recorder post-mortem to (schema-versioned JSON; see
	// docs/OBSERVABILITY.md "Flight recorder & post-mortems"). The dump is
	// also attached to the AbortError itself, so the path is a convenience
	// for CLI workflows (-flight-dump).
	FlightDump string

	// CheckpointEvery enables level-boundary checkpointing: every
	// completed level's boundary is captured in memory (the latest one
	// backs /debug/checkpoint and the abort auto-checkpoint), and every
	// CheckpointEvery-th boundary is written to CheckpointPath when set.
	// 0 disables checkpointing. Capture happens at the level barrier — no
	// batch in flight, no extra modelled collectives — so modelled output
	// is identical with checkpointing on or off (see docs/CHAOS.md
	// "Checkpoint & resume").
	CheckpointEvery int

	// CheckpointPath is the file periodic checkpoints are written to (each
	// write replaces the previous — the file always holds the newest
	// boundary). On abort, the latest in-memory checkpoint is written here
	// too; with CheckpointPath empty but FlightDump set, the abort
	// checkpoint lands next to the flight dump as <FlightDump>.ckpt.json.
	CheckpointPath string

	// StragglerFactor enables straggler detection: after each level, a
	// node whose host-side level time exceeds the all-node mean by this
	// factor is flagged (obs.EventStraggler on /events, an instant event
	// in the Chrome trace, and the core.stragglers counter). 0 disables.
	// Host-side timings only — modelled results are unaffected.
	StragglerFactor float64

	// Codec compresses message payloads on the wire (nil = raw 16 bytes
	// per pair). Message compression is the paper's stated future-work
	// integration (Section 7); comm.VarintDeltaCodec implements the
	// classic sorted-delta scheme, comm.BitmapCodec the dense-frontier
	// bitmap layout and comm.AdaptiveCodec the per-batch density pick.
	// Payload codecs run on the real transport path (batches travel
	// encoded and are decoded on arrival).
	Codec comm.Codec

	// CodecBackward, when non-nil, overrides Codec on the backward
	// channel only. The bottom-up query waves are the dense traffic where
	// bitmap/adaptive encoding wins, and a backward-only codec keeps
	// modelled wire bytes deterministic (bottom-up forward replies are
	// arrival-ordered, so content-sensitive sizing of the forward channel
	// is not reproducible run to run).
	CodecBackward comm.Codec

	// Partition selects the 1-D vertex layout (Section 5 balances the
	// graph partitioning; the default round-robin is the Graph500
	// reference layout).
	Partition PartitionStrategy

	// Obs, when non-nil, receives the unified observability output of
	// every Run: accumulated metrics in Obs.Metrics and one per-level
	// RunTrace per root in Obs.Trace. Nil disables at zero cost.
	Obs *obs.Observer
}

// PartitionStrategy selects the 1-D vertex-to-node layout.
type PartitionStrategy int

const (
	// PartitionRoundRobin assigns vertex v to node v mod P (default).
	PartitionRoundRobin PartitionStrategy = iota
	// PartitionBlock assigns contiguous vertex ranges.
	PartitionBlock
	// PartitionDegreeBalanced balances per-node degree sums greedily —
	// the Section 5 "balance the graph partitioning" refinement.
	PartitionDegreeBalanced
)

func (p PartitionStrategy) String() string {
	switch p {
	case PartitionBlock:
		return "block"
	case PartitionDegreeBalanced:
		return "degree-balanced"
	default:
		return "round-robin"
	}
}

// DefaultConfig returns the paper's production configuration (Relay + CPE +
// direction optimization + hub prefetch) for the given node count.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:              nodes,
		Transport:          TransportRelay,
		Engine:             perf.EngineCPE,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
	}
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	if c.Workers == 0 {
		c.Workers = sw.DefaultWorkers(c.Nodes)
	}
	c.Workers = sw.ClampWorkers(c.Workers)
	return c
}

// Name labels the configuration the way Figure 11 does ("Relay CPE" etc.).
func (c Config) Name() string {
	return fmt.Sprintf("%s %s", titleCase(c.Transport.String()), c.Engine)
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// shapeFor resolves the relay group shape of a configuration (zero value
// for direct transport).
func shapeFor(c Config) (comm.GroupShape, error) {
	if c.Transport != TransportRelay {
		return comm.GroupShape{}, nil
	}
	if c.GroupM > 0 {
		return comm.NewGroupShape(c.Nodes, c.GroupM)
	}
	super := c.SuperNodeSize
	if super <= 0 {
		super = 256
	}
	return comm.DefaultGroupShape(c.Nodes, super), nil
}

// ValidateConfig reports whether the configuration is architecturally
// possible without building a runner — the experiment sweeps use it to
// mark projected configurations as crashed (e.g. Direct+CPE beyond the SPM
// destination budget).
func ValidateConfig(c Config) error {
	c = c.withDefaults()
	if c.Nodes <= 0 {
		return fmt.Errorf("core: %d nodes", c.Nodes)
	}
	shape, err := shapeFor(c)
	if err != nil {
		return err
	}
	return validateEngine(c, shape)
}

// validateEngine enforces the CPE SPM constraint: with `concurrentModules`
// module contexts resident, each module's shuffle may address at most
// 1024/concurrentModules destinations (Section 4.3's 1024-destination
// budget shared by the active modules).
func validateEngine(c Config, shape comm.GroupShape) error {
	if c.Engine != perf.EngineCPE {
		return nil
	}
	budget := sw.MaxDirectDestinations(shuffle.DefaultLayout().NumConsumers(), sw.DMASaturationChunk)
	budget /= concurrentModules
	destinations := c.Nodes
	if c.Transport == TransportRelay {
		// Stage one shuffles to N groups; stage two within M nodes.
		destinations = shape.N
		if shape.M > destinations {
			destinations = shape.M
		}
	}
	if destinations > budget {
		return fmt.Errorf("%w: %d destinations > per-module budget %d (%s, %d nodes)",
			ErrCPESPM, destinations, budget, c.Name(), c.Nodes)
	}
	return nil
}
