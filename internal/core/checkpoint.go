package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
)

// Level-boundary checkpointing, for every loop driven through a Session.
// Each node deep-copies its own state at the bottom of its level loop —
// after the post-level statistics collectives, before joining the next
// level's — and stages it into a host-side latch. The level window makes
// this race-free without any extra modelled traffic: once a node's
// post-level allreduces complete, every byte of the level is recorded, and
// no next-level traffic, flight event or injection can be recorded until
// all nodes (each after its own capture) join the next level's first
// collective. Node 0 additionally captures the machine-wide state (level
// statistics, network counters, injection log, flight rings, plus the
// caller's own: BFS adds its policy and hub bitmap) inside the same
// window. The last node to stage freezes the assembled checkpoint;
// partially staged boundaries are never published, so an abort always
// finds the newest complete one.

// bfsNodeData is one node's serialized BFS state at a level boundary: the
// parent map, the frontier entering the next level (curr — next and
// genNext are empty at the boundary), the visited snapshot *before* the
// new frontier is folded in (the fold is the first statement of the loop),
// and the cumulative per-module counters the end-of-run metrics fold.
type bfsNodeData struct {
	Parent     []int64  `json:"parent"`
	Curr       []uint64 `json:"curr"`
	Visited    []uint64 `json:"visited"`
	VisitedDeg int64    `json:"visited_deg"`

	RunGenBytes     int64 `json:"run_gen_bytes"`
	RunFwdBytes     int64 `json:"run_fwd_bytes"`
	RunBwdBytes     int64 `json:"run_bwd_bytes"`
	RunRelayBytes   int64 `json:"run_relay_bytes"`
	RunInvocations  int64 `json:"run_invocations"`
	RunSmallBatches int64 `json:"run_small_batches"`
	// RelayedTotal is the relay endpoint's cross-level byte accumulator
	// (relay transport only).
	RelayedTotal int64 `json:"relayed_total,omitempty"`

	// Spans is the per-level module-work log (recorded only when span
	// recording is enabled).
	Spans []moduleWorkJSON `json:"spans,omitempty"`
}

// moduleWorkJSON serializes one moduleWork entry.
type moduleWorkJSON struct {
	Level int      `json:"level"`
	Dir   int      `json:"dir"`
	Bytes [4]int64 `json:"bytes"`
}

// checkpointLatch assembles one run's boundary checkpoints from per-node
// stagings; each session has its own.
type checkpointLatch struct {
	mu      sync.Mutex
	pending *ckpt.Checkpoint
	staged  int
	latest  *ckpt.Checkpoint
	// written counts checkpoint files written this run (tests poke it).
	written int
}

// Latest returns the newest fully staged checkpoint (nil before the first
// boundary, or on a nil latch: before the first run).
func (l *checkpointLatch) Latest() *ckpt.Checkpoint {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latest
}

// CheckpointJSON implements obs.CheckpointSource: the canonical encoding
// of the latest checkpoint, for /debug/checkpoint.
func (l *checkpointLatch) CheckpointJSON() ([]byte, bool) {
	c := l.Latest()
	if c == nil {
		return nil, false
	}
	data, err := ckpt.Encode(c)
	if err != nil {
		return nil, false
	}
	return data, true
}

// stage stages one node's boundary capture; level is the level that just
// completed (the checkpoint's Level is level+1 — the resumed run's start
// level). Node 0 also captures the machine-wide state. The last node to
// stage freezes the checkpoint and, at the configured cadence, writes it
// to Config.CheckpointPath.
func (s *Session) stage(node, level int, capture func() (json.RawMessage, error)) error {
	data, err := capture()
	if err != nil {
		return err
	}
	var machine *ckpt.MachineState
	if node == 0 {
		ms := s.captureMachineState()
		machine = &ms
	}
	l := s.ckpt
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == nil || l.pending.Level != level+1 {
		l.pending = &ckpt.Checkpoint{
			Schema:      ckpt.SchemaVersion,
			Kernel:      s.kernel,
			Root:        int64(s.root),
			Config:      s.identity,
			Fingerprint: s.identity.Fingerprint(),
			Level:       level + 1,
			Nodes:       make([]ckpt.NodeState, s.cfg.Nodes),
		}
		l.staged = 0
	}
	c := l.pending
	c.Nodes[node] = ckpt.NodeState{ID: node, Data: data}
	if machine != nil {
		c.Machine = *machine
	}
	l.staged++
	if l.staged < s.cfg.Nodes {
		return nil
	}
	// Boundary complete: publish, and write the file at the cadence.
	l.pending = nil
	l.latest = c
	if s.cfg.CheckpointPath != "" && c.Level%s.cfg.CheckpointEvery == 0 {
		if err := ckpt.WriteFile(s.cfg.CheckpointPath, c); err != nil {
			return fmt.Errorf("core: writing checkpoint at level %d: %w", c.Level, err)
		}
		l.written++
	}
	return nil
}

// captureMachineState snapshots the machine-wide state at a boundary.
// Node 0 calls it from inside its boundary window: the post-level
// collectives have completed on every node and nobody can generate
// traffic, flight events or injections until all nodes pass their own
// boundary capture — so every counter read here is stable and
// deterministic.
func (s *Session) captureMachineState() ckpt.MachineState {
	s.mu.Lock()
	levels := append([]perf.LevelStats(nil), s.levels...)
	lastSnap := s.lastSnap
	s.mu.Unlock()
	ms := ckpt.MachineState{
		Levels:     levels,
		LastSnap:   lastSnap,
		Net:        s.net.CaptureState(),
		Injections: s.inj.Log(),
		Flight:     s.flight.CaptureState(),
	}
	if s.captureMachine != nil {
		s.captureMachine(&ms)
	}
	return ms
}

// writeAbortCheckpoint writes the abort-time checkpoint next to the flight
// dump (best-effort, like the dump itself): to Config.CheckpointPath when
// set, else to <FlightDump>.ckpt.json when a flight dump path exists.
// Returns the path written, or "".
func (s *Session) writeAbortCheckpoint(c *ckpt.Checkpoint) string {
	if c == nil || s.cfg.CheckpointEvery <= 0 {
		return ""
	}
	path := s.cfg.CheckpointPath
	if path == "" && s.cfg.FlightDump != "" {
		path = s.cfg.FlightDump + ".ckpt.json"
	}
	if path == "" {
		return ""
	}
	if err := ckpt.WriteFile(path, c); err != nil {
		return ""
	}
	return path
}

// captureNode serializes this node's state. Called at the level boundary,
// after the module goroutines have joined — no concurrent writers.
func (ns *nodeState) captureNode() (json.RawMessage, error) {
	data := bfsNodeData{
		Parent:          append([]int64(nil), ns.parent...),
		Curr:            append([]uint64(nil), ns.curr.Words()...),
		Visited:         append([]uint64(nil), ns.visited.Words()...),
		VisitedDeg:      ns.visitedDeg,
		RunGenBytes:     ns.runGenBytes,
		RunFwdBytes:     ns.runFwdBytes,
		RunBwdBytes:     ns.runBwdBytes,
		RunRelayBytes:   ns.runRelayBytes,
		RunInvocations:  ns.runInvocations,
		RunSmallBatches: ns.runSmallBatches,
	}
	if rep, ok := ns.ep.(*comm.RelayEndpoint); ok {
		data.RelayedTotal = rep.TotalRelayedBytes()
	}
	for _, mw := range ns.spanLog {
		data.Spans = append(data.Spans, moduleWorkJSON{Level: mw.level, Dir: int(mw.dir), Bytes: mw.bytes})
	}
	return json.Marshal(&data)
}

// restoreNode loads a serialized node state into a freshly constructed
// node (the resume path, before any goroutine starts).
func (ns *nodeState) restoreNode(raw json.RawMessage) error {
	var data bfsNodeData
	if err := json.Unmarshal(raw, &data); err != nil {
		return fmt.Errorf("core: node %d checkpoint state: %w", ns.id, err)
	}
	if len(data.Parent) != len(ns.parent) {
		return fmt.Errorf("core: node %d checkpoint has %d parents, partition gives %d",
			ns.id, len(data.Parent), len(ns.parent))
	}
	copy(ns.parent, data.Parent)
	if err := ns.curr.LoadWords(data.Curr); err != nil {
		return fmt.Errorf("core: node %d checkpoint frontier: %w", ns.id, err)
	}
	if err := ns.visited.LoadWords(data.Visited); err != nil {
		return fmt.Errorf("core: node %d checkpoint visited set: %w", ns.id, err)
	}
	ns.visitedDeg = data.VisitedDeg
	ns.runGenBytes = data.RunGenBytes
	ns.runFwdBytes = data.RunFwdBytes
	ns.runBwdBytes = data.RunBwdBytes
	ns.runRelayBytes = data.RunRelayBytes
	ns.runInvocations = data.RunInvocations
	ns.runSmallBatches = data.RunSmallBatches
	if rep, ok := ns.ep.(*comm.RelayEndpoint); ok {
		rep.RestoreRelayedBytes(data.RelayedTotal)
	}
	for _, s := range data.Spans {
		ns.spanLog = append(ns.spanLog, moduleWork{level: s.Level, dir: Direction(s.Dir), bytes: s.Bytes})
	}
	return nil
}

// machineConfig builds a run's checkpoint identity record from its
// configuration (defaults applied, so a config reconstructed with
// ConfigFromCheckpoint fingerprints the same) and graph.
func machineConfig(cfg Config, g *graph.CSR) ckpt.MachineConfig {
	codec := "raw"
	if cfg.Codec != nil {
		codec = cfg.Codec.Name()
	}
	codecBackward := ""
	if cfg.CodecBackward != nil {
		codecBackward = cfg.CodecBackward.Name()
	}
	return ckpt.MachineConfig{
		Nodes:              cfg.Nodes,
		SuperNodeSize:      cfg.SuperNodeSize,
		Transport:          cfg.Transport.String(),
		Engine:             cfg.Engine.String(),
		GroupM:             cfg.GroupM,
		DirectionOptimized: cfg.DirectionOptimized,
		AlphaBits:          math.Float64bits(cfg.Alpha),
		BetaBits:           math.Float64bits(cfg.Beta),
		HubPrefetch:        cfg.HubPrefetch,
		HubsTopDown:        cfg.HubsTopDown,
		HubsBottomUp:       cfg.HubsBottomUp,
		SmallMessageMPE:    cfg.SmallMessageMPE,
		BatchBytes:         cfg.BatchBytes,
		MPIMemoryBudget:    cfg.MPIMemoryBudget,
		Codec:              codec,
		CodecBackward:      codecBackward,
		Partition:          cfg.Partition.String(),
		GraphN:             g.N,
		GraphEdges:         g.NumEdges(),
	}
}

// ConfigFromCheckpoint reconstructs a machine Config from a checkpoint's
// identity record, so a resume caller only has to rebuild the graph and
// pick host-side knobs (Workers, observers, timeouts, chaos plan) — those
// do not affect modelled output and are not part of the fingerprint.
func ConfigFromCheckpoint(mc ckpt.MachineConfig) (Config, error) {
	c := Config{
		Nodes:              mc.Nodes,
		SuperNodeSize:      mc.SuperNodeSize,
		GroupM:             mc.GroupM,
		DirectionOptimized: mc.DirectionOptimized,
		Alpha:              math.Float64frombits(mc.AlphaBits),
		Beta:               math.Float64frombits(mc.BetaBits),
		HubPrefetch:        mc.HubPrefetch,
		HubsTopDown:        mc.HubsTopDown,
		HubsBottomUp:       mc.HubsBottomUp,
		SmallMessageMPE:    mc.SmallMessageMPE,
		BatchBytes:         mc.BatchBytes,
		MPIMemoryBudget:    mc.MPIMemoryBudget,
	}
	switch mc.Transport {
	case TransportRelay.String():
		c.Transport = TransportRelay
	case TransportDirect.String():
		c.Transport = TransportDirect
	default:
		return Config{}, fmt.Errorf("core: checkpoint names unknown transport %q", mc.Transport)
	}
	switch mc.Engine {
	case perf.EngineCPE.String():
		c.Engine = perf.EngineCPE
	case perf.EngineMPE.String():
		c.Engine = perf.EngineMPE
	default:
		return Config{}, fmt.Errorf("core: checkpoint names unknown engine %q", mc.Engine)
	}
	codec, err := comm.CodecByName(mc.Codec)
	if err != nil {
		return Config{}, fmt.Errorf("core: checkpoint names unknown codec %q", mc.Codec)
	}
	c.Codec = codec
	codecBackward, err := comm.CodecByName(mc.CodecBackward)
	if err != nil {
		return Config{}, fmt.Errorf("core: checkpoint names unknown backward codec %q", mc.CodecBackward)
	}
	c.CodecBackward = codecBackward
	switch mc.Partition {
	case PartitionRoundRobin.String():
		c.Partition = PartitionRoundRobin
	case PartitionBlock.String():
		c.Partition = PartitionBlock
	case PartitionDegreeBalanced.String():
		c.Partition = PartitionDegreeBalanced
	default:
		return Config{}, fmt.Errorf("core: checkpoint names unknown partition %q", mc.Partition)
	}
	return c, nil
}

// captureMachine adds the BFS machine state to node 0's boundary capture:
// the authoritative policy state and the replicated hub-visited bitmap.
func (r *Runner) captureMachine(ms *ckpt.MachineState) {
	ms.Policy = int(r.policy.State())
	if r.hubVisited != nil {
		ms.HubVisited = append([]uint64(nil), r.hubVisited.Words()...)
	}
}

// LastCheckpoint returns the newest fully staged checkpoint of the current
// or most recent run (nil before the first boundary or with checkpointing
// disabled).
func (r *Runner) LastCheckpoint() *ckpt.Checkpoint { return r.ckpt.Latest() }

// CheckpointJSON implements obs.CheckpointSource: the canonical encoding
// of the latest checkpoint, for /debug/checkpoint.
func (r *Runner) CheckpointJSON() ([]byte, bool) { return r.ckpt.CheckpointJSON() }

// Resume continues a checkpointed BFS run: the ensemble is reconstructed
// from the checkpoint and the loop re-enters at the recorded boundary. The
// runner must have been built over the same graph and an equivalent
// machine configuration (fingerprint-checked); Workers, observers,
// timeouts and the chaos plan may differ — they are host-side. The
// completed run's Result is bitwise identical to an uninterrupted run's.
func (r *Runner) Resume(c *ckpt.Checkpoint) (*Result, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	root := graph.Vertex(c.Root)
	if root < 0 || int64(root) >= r.g.N {
		return nil, fmt.Errorf("core: checkpoint root %d out of range [0, %d)", root, r.g.N)
	}
	return r.run(root, c)
}
