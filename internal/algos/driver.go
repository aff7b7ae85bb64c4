// Package algos implements the other irregular graph algorithms the paper
// names as direct beneficiaries of its techniques (Section 8: "the key
// operations of the distributed BFS can be viewed as shuffling dynamically
// generated data, which is also the major operation of many other graph
// algorithms, such as SSSP, WCC, PageRank, and K-core decomposition. All
// the three key techniques we used are readily applicable").
//
// Every algorithm here runs on exactly the same substrate as the BFS
// engine — the comm transports (direct or group-batched relay), the
// fat-tree traffic accounting, the perf timing model, the chaos fault
// injector and the observability sinks — via a shared round-synchronous
// SPMD driver: each round, every node generates messages from its active
// vertices, the transport batches and delivers them, handlers fold them
// into local state, and a sum-allreduce decides termination.
//
// The driver's loop runs inside the same core.Session as the BFS runner's
// (see docs/ALGORITHMS.md), so both share one copy of the operational
// contract: chaos-injected faults with bounded retries, the level
// watchdog, clean *core.AbortError teardown with the completed rounds,
// the flight recorder's post-mortem, the per-round accounting window and
// the checkpoint latch. The driver adds live per-round events, a
// reconciling RunTrace and generator/handler module spans per run.
package algos

import (
	"fmt"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// DefaultMaxRounds guards against non-converging algorithm bugs.
const DefaultMaxRounds = 100000

// NodeCtx is one node's view of the machine, handed to algorithm
// constructors.
type NodeCtx struct {
	ID   int
	Part graph.Partition
	Sub  *graph.LocalSubgraph
	Net  *comm.Network // collectives (all nodes must call symmetrically)
	// Workers is the resolved host worker-pool width (core.Config.Workers
	// with defaults applied) a kernel's hot loops may fan out over. The
	// contract is bit-identical output for every width — see the worker
	// parity rules in docs/ALGORITHMS.md.
	Workers int
}

// Global converts a local vertex index to its global ID.
func (c *NodeCtx) Global(local int64) graph.Vertex { return c.Part.Global(c.ID, local) }

// Send is the message emitter handed to Generate.
type Send func(dst int, p comm.Pair) error

// RoundAlgo is one node's algorithm instance.
type RoundAlgo interface {
	// Active returns this node's pending work; the round runs only while
	// the machine-wide sum is positive.
	Active() int64
	// Generate emits this node's messages for the round and retires the
	// work it announced via Active.
	Generate(round int, send Send) error
	// Handle folds one delivered batch into local state.
	Handle(round int, pairs []comm.Pair) error
	// EndRound runs after all of the round's traffic has been handled
	// (symmetric across nodes; collectives are allowed here).
	EndRound(round int) error
}

// RunOptions identifies and bounds one driver run.
type RunOptions struct {
	// MaxRounds guards against non-convergence (<= 0 selects
	// DefaultMaxRounds).
	MaxRounds int
	// Kernel names the algorithm for live events, metrics and abort
	// reports ("sssp", "wcc", ...).
	Kernel string
	// Root is the run's identity vertex, threaded into live events,
	// recorded traces and AbortError. Rootless kernels (WCC, PageRank,
	// K-core) pass graph.NoVertex.
	Root graph.Vertex
	// Resume, when non-nil, reconstructs the ensemble from a round-boundary
	// checkpoint instead of starting fresh: every node's kernel state is
	// restored through its Checkpointer hook and the loop re-enters at the
	// recorded round. The caller must rebuild the same graph and pass an
	// equivalent machine configuration (fingerprint-checked) and identical
	// kernel parameters; Workers, observers, timeouts and the chaos plan
	// are host-side and may differ. The completed run's RunInfo is bitwise
	// identical to an uninterrupted run's.
	Resume *ckpt.Checkpoint
}

// RunInfo is the machine-level outcome of a run.
type RunInfo struct {
	Rounds int
	Levels []perf.LevelStats
	// Time and the throughput helpers come from the perf model.
	Time float64
	// NetworkBytes and NetworkMessages total the wire traffic.
	NetworkBytes, NetworkMessages int64
	// MaxConnections is the peak per-node MPI connection count.
	MaxConnections int
	// Injections is the deterministically sorted log of the faults the
	// chaos injector fired during the run; nil without a chaos plan.
	Injections []chaos.Fault
}

// MTEPS returns millions of traversed edges per second for `edges`
// processed edge relaxations.
func (r *RunInfo) MTEPS(edges int64) float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(edges) / r.Time / 1e6
}

// Run executes one algorithm on the simulated machine described by cfg
// over graph g. makeAlgo constructs each node's instance.
//
// The run is driven through a core.Session, the BFS engine's own run
// contract: cfg.Chaos faults inject into every send, cfg.LevelTimeout arms
// the level watchdog (a level is a round here), cfg.Obs receives live
// round events, a reconciling RunTrace and module spans, and a torn-down
// run returns a *core.AbortError carrying the original cause and the
// completed rounds.
func Run(cfg core.Config, g *graph.CSR, opts RunOptions, makeAlgo func(ctx *NodeCtx) (RoundAlgo, error)) (*RunInfo, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	kernel := opts.Kernel
	if kernel == "" {
		kernel = "algo"
	}

	// The driver always lays vertices out round-robin (cfg.Partition is a
	// BFS-engine knob), so the checkpoint identity records that.
	cfg.Partition = core.PartitionRoundRobin
	s, err := core.OpenSession(cfg, g, core.SessionSpec{Kernel: kernel, Root: opts.Root, Resume: opts.Resume})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if pb := cfg.Obs.ProgressOf(); pb != nil {
		pb.Publish(obs.LiveEvent{Kind: obs.EventRunStart, Root: int64(opts.Root), Kernel: kernel})
	}
	if sr := cfg.Obs.SpansOf(); sr != nil {
		sr.BeginRun(int64(opts.Root))
	}

	net := s.Network()
	workers := s.Workers()
	part := graph.NewRoundRobin(g.N, cfg.Nodes)
	nodes := make([]*nodeRun, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		ctx := &NodeCtx{
			ID:      i,
			Part:    part,
			Sub:     graph.ExtractLocal(g, part, i),
			Net:     net,
			Workers: workers,
		}
		algo, err := makeAlgo(ctx)
		if err != nil {
			return nil, fmt.Errorf("algos: node %d: %w", i, err)
		}
		ep, err := s.Endpoint(i)
		if err != nil {
			return nil, err
		}
		nodes[i] = &nodeRun{
			ctx: ctx, algo: algo, ep: ep, sess: s,
			maxRounds: maxRounds,
			kernel:    kernel,
			root:      int64(opts.Root),
			progress:  cfg.Obs.ProgressOf(),
			keepSpans: cfg.Obs.SpansOf() != nil,
		}
		if cfg.CheckpointEvery > 0 || opts.Resume != nil {
			if _, ok := algo.(Checkpointer); !ok {
				return nil, fmt.Errorf("algos: kernel %q does not implement Checkpointer; cannot checkpoint or resume", kernel)
			}
		}
		if opts.Resume != nil {
			if err := nodes[i].restoreNode(opts.Resume.Nodes[i].Data); err != nil {
				return nil, err
			}
		}
	}

	if err := s.Run(func(i int) error { return nodes[i].loop() }); err != nil {
		return nil, err
	}

	info := &RunInfo{Levels: s.Levels()}
	model := s.Model()
	info.Time = model.TotalTime(info.Levels)
	info.Rounds = len(info.Levels)
	info.NetworkBytes = net.Counters.NetworkBytes()
	info.NetworkMessages = net.Counters.NetworkMessages()
	info.MaxConnections = net.MaxConnectionCount()
	info.Injections = s.Injections()

	if m := cfg.Obs.MetricsOf(); m != nil {
		m.Counter("algos.runs").Inc()
		m.Counter("algos.rounds").Add(int64(info.Rounds))
		m.Counter("algos." + kernel + ".runs").Inc()
		m.Gauge("algos.workers").Set(int64(workers))
		net.MetricsInto(m)
	}
	if t := cfg.Obs.TraceOf(); t != nil {
		t.Record(s.Trace(info.Time))
	}
	if sr := cfg.Obs.SpansOf(); sr != nil {
		sr.EndRun(info.Time, s.ModuleSpans(func(node, li int) (int, []string, []int64) {
			log := nodes[node].spanLog
			if li >= len(log) {
				return 0, nil, nil
			}
			rw := log[li]
			return rw.round, []string{obs.ModuleForwardGenerator, obs.ModuleForwardHandler}, []int64{rw.gen, rw.handler}
		}), nil)
	}
	if pb := cfg.Obs.ProgressOf(); pb != nil {
		var edges int64
		for _, st := range info.Levels {
			edges += st.FrontierEdges
		}
		pb.Publish(obs.LiveEvent{
			Kind: obs.EventRunDone, Root: int64(opts.Root), Kernel: kernel,
			GTEPS: info.MTEPS(edges) / 1e3,
		})
	}
	return info, nil
}

// roundWork is one node's module byte counts for one completed round.
type roundWork struct {
	round        int
	gen, handler int64
}

// nodeRun drives one node's SPMD loop.
type nodeRun struct {
	ctx       *NodeCtx
	algo      RoundAlgo
	ep        comm.Endpoint
	sess      *core.Session
	maxRounds int

	kernel   string
	root     int64
	progress *obs.ProgressBroker

	keepSpans bool
	spanLog   []roundWork
}

func (n *nodeRun) loop() error {
	net := n.ctx.Net
	for round := n.sess.Start(); ; round++ {
		if round >= n.maxRounds {
			net.Abort()
			return fmt.Errorf("algos: node %d exceeded %d rounds without converging", n.ctx.ID, n.maxRounds)
		}

		// Node 0 opens the round's accounting window before the activity
		// allreduce, so every byte of the round — termination check, data,
		// post-round statistics — lands in exactly one round's delta.
		if n.ctx.ID == 0 {
			n.sess.OpenLevel(round)
		}

		active := net.AllreduceSum(n.algo.Active())
		if net.Aborted() {
			return comm.ErrAborted
		}
		if active == 0 {
			return nil
		}

		if n.ctx.ID == 0 && n.progress != nil {
			n.progress.Publish(obs.LiveEvent{
				Kind: obs.EventLevel, Root: n.root, Kernel: n.kernel,
				Level: round, Direction: "round",
				FrontierVertices: active,
			})
		}

		sentMsgs0, sentBytes0 := net.NodeSent(n.ctx.ID)

		n.ep.StartLevel(round, comm.ChanForward)
		net.Barrier()
		if net.Aborted() {
			return comm.ErrAborted
		}

		var sentPairs, recvPairs, batches int64
		send := func(dst int, p comm.Pair) error {
			sentPairs++
			return n.ep.Send(comm.ChanForward, dst, p)
		}
		if d := net.ChaosDelay(chaos.KindDelayGenerator, n.ctx.ID, round); d > 0 {
			time.Sleep(d)
		}
		if err := n.algo.Generate(round, send); err != nil {
			net.Abort()
			return err
		}
		if err := n.ep.CloseChannel(comm.ChanForward); err != nil {
			net.Abort()
			return err
		}
		if d := net.ChaosDelay(chaos.KindDelayHandler, n.ctx.ID, round); d > 0 {
			time.Sleep(d)
		}
	recvLoop:
		for {
			ev := n.ep.Recv()
			switch ev.Type {
			case comm.EvError:
				net.Abort()
				return ev.Err
			case comm.EvData:
				recvPairs += int64(len(ev.Batch.Pairs))
				batches++
				if err := n.algo.Handle(round, ev.Batch.Pairs); err != nil {
					net.Abort()
					return err
				}
			case comm.EvChannelClosed:
				break recvLoop
			}
		}
		if err := n.algo.EndRound(round); err != nil {
			net.Abort()
			return err
		}

		// Round statistics (same critical-path folding as the BFS engine).
		processed := (sentPairs + recvPairs) * comm.PairBytes
		sentMsgs1, sentBytes1 := net.NodeSent(n.ctx.ID)
		maxProcessed := net.AllreduceMax(processed)
		maxSent := net.AllreduceMax(sentBytes1 - sentBytes0)
		maxMsgs := net.AllreduceMax(sentMsgs1 - sentMsgs0)
		maxBatches := net.AllreduceMax(batches + 1)
		sumPairs := net.AllreduceSum(sentPairs)
		if net.Aborted() {
			return comm.ErrAborted
		}
		if n.keepSpans {
			n.spanLog = append(n.spanLog, roundWork{
				round:   round,
				gen:     sentPairs * comm.PairBytes,
				handler: recvPairs * comm.PairBytes,
			})
		}
		if n.ctx.ID == 0 {
			rounds := 1
			if n.ep.Mode() == "relay" {
				rounds = 2
			}
			n.sess.CloseLevel(perf.LevelStats{
				Level:                 round,
				Direction:             "round",
				FrontierVertices:      active,
				FrontierEdges:         sumPairs,
				MaxNodeProcessedBytes: maxProcessed,
				MaxNodeSentBytes:      maxSent,
				MaxNodeMessages:       maxMsgs,
				ModuleInvocations:     maxBatches,
				Rounds:                rounds,
			}, fmt.Sprintf("active=%d pairs=%d", active, sumPairs))
		}

		// Round boundary: stage this node's checkpoint capture before
		// joining the next round's activity allreduce.
		if err := n.sess.Checkpoint(n.ctx.ID, round, n.captureNode); err != nil {
			return err
		}
	}
}
