package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"swbfs/internal/algos"
	"swbfs/internal/core"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/graph500"
	"swbfs/internal/obs"
)

// PageRank checks use the oracle tolerances of the repository's own
// PageRank tests: per vertex, and for the rank mass. The mass is compared
// with the oracle's, not with 1: both truncate every per-edge push to
// fixed point, and at scale 15 the oracle itself loses about 1.8e-6 of
// the mass over 10 iterations.
const (
	rankTolerance = 1e-9
	massTolerance = 1e-6
)

// bench measures one workload at one seed. It calls each layer only
// through its public functions and times every call from outside.
type bench struct {
	w    workload
	seed int64
	tr   *tracer // nil unless the run is traced

	// tamperParent and tamperRank, when set, corrupt a kernel's output
	// before it is checked. The tests use them to prove the checks check.
	tamperParent func([]graph.Vertex)
	tamperRank   func([]float64)

	// ref holds the modelled output of every kernel call, by input, from
	// its first run; every later call on the same input must repeat it
	// bit for bit.
	ref       map[callKey]modelled
	attempted int
	failed    int
	failures  []string

	// edges is the undirected edge count of each graph built.
	edges map[int]int64
}

// callKey names one kernel input: a graph of the run and a root of it.
type callKey struct{ graph, call int }

// modelled is a kernel call's modelled output: the signature that must
// repeat, and the throughput and time it contributes to the run's
// modelled metrics.
type modelled struct {
	sig       callSig
	teps, sec float64
}

// callSig is the modelled output of one kernel call: it depends only on
// the graph, the machine and the root, never on host timing or tracing.
type callSig struct {
	root, visited, traversed int64
	levels, bottomUp         int
	timeBits                 uint64
	netBytes, netMessages    int64
	rankHash                 uint64
}

// unit is one checked result: set-up, every kernel call and every check.
type unit struct {
	setup, wall float64
	kernel      []float64 // host seconds per kernel call
	edges       int64     // edges traversed by the passing kernel calls
	graph       int       // index of the run's graph it ran on

	// Traced only: the unit's span, and per-call counters summed over its
	// kernel calls.
	spanID int
	counts map[string]float64
	calls  int
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// check records the modelled output of a kernel call on input k, or, if
// k ran before, reports whether the output repeats.
func (b *bench) check(k callKey, m modelled) bool {
	if b.ref == nil {
		b.ref = make(map[callKey]modelled)
	}
	first, ok := b.ref[k]
	if !ok {
		b.ref[k] = m
		return true
	}
	return first.sig == m.sig
}

// graphSeed derives the seed of graph i of the run; distinct run seeds
// never share a graph.
func (b *bench) graphSeed(i int) int64 { return b.seed*int64(b.w.graphs) + int64(i) }

// unit runs one checked result on graph gi of the run, traced or not.
func (b *bench) unit(traced bool, gi int) (*unit, error) {
	var tr *tracer
	var o *obs.Observer
	if traced {
		tr = b.tr
		o = &obs.Observer{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(0)}
	}
	u := &unit{graph: gi, counts: make(map[string]float64)}
	top := tr.begin("bench")
	var err error
	if b.w.isBFS() {
		err = b.bfsUnit(u, tr, o)
	} else {
		err = b.pagerankUnit(u, tr, o)
	}
	u.wall = tr.end(top)
	u.spanID = top.id
	return u, err
}

// graph generates the workload's graph and builds its CSR, the set-up
// steps every workload shares.
func (b *bench) graph(tr *tracer, gi int) (*graph.CSR, error) {
	kc := b.w.kronecker(b.graphSeed(gi))
	m := tr.begin("graph.gen")
	edges, err := graph.GenerateKronecker(kc)
	tr.end(m)
	if err != nil {
		return nil, fmt.Errorf("generate graph: %w", err)
	}
	m = tr.begin("graph.csr")
	g, err := graph.BuildCSR(kc.NumVertices(), edges)
	tr.end(m)
	if err != nil {
		return nil, fmt.Errorf("build CSR: %w", err)
	}
	if b.edges == nil {
		b.edges = make(map[int]int64)
	}
	b.edges[gi] = g.NumEdges() / 2
	return g, nil
}

func (b *bench) bfsUnit(u *unit, tr *tracer, o *obs.Observer) error {
	start := time.Now()
	cfg, err := b.w.machine(o, b.w.checkpointEvery)
	if err != nil {
		return err
	}
	g, err := b.graph(tr, u.graph)
	if err != nil {
		return err
	}
	m := tr.begin("core.partition")
	r, err := core.NewRunner(cfg, g)
	tr.end(m)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	u.setup = time.Since(start).Seconds()

	roots, err := graph500.SampleRoots(g, b.w.roots, b.graphSeed(u.graph))
	if err != nil {
		return err
	}
	for i, root := range roots {
		b.attempted++
		before := takeProbe(tr, o)
		m := tr.begin("core.run")
		res, err := r.Run(root)
		u.kernel = append(u.kernel, tr.end(m))
		if err != nil {
			b.fail("root %d: %v", root, err)
			continue
		}
		if o != nil {
			u.addCall(before, takeProbe(tr, o), len(res.Levels), res.BottomUpLevels)
		}
		if b.tamperParent != nil {
			b.tamperParent(res.Parent)
		}
		m = tr.begin("graph500.validate")
		_, err = graph500.ValidateParallel(g, root, res.Parent, 0)
		tr.end(m)
		if err != nil {
			b.fail("root %d: %v", root, err)
			continue
		}
		if !b.check(callKey{u.graph, i}, bfsModelled(res)) {
			b.fail("root %d: modelled output differs from the first run", root)
			continue
		}
		u.edges += res.TraversedEdges
	}
	if o != nil {
		u.flightInto(tr, r.Flight())
	}
	return nil
}

func bfsModelled(res *core.Result) modelled {
	s := callSig{
		root: int64(res.Root), visited: res.Visited, traversed: res.TraversedEdges,
		levels: len(res.Levels), bottomUp: res.BottomUpLevels,
		timeBits: math.Float64bits(res.Time),
	}
	for _, l := range res.Levels {
		s.netBytes += l.Net.NetworkBytes()
		s.netMessages += l.Net.Messages[fabric.IntraSuper] + l.Net.Messages[fabric.InterSuper]
	}
	return modelled{sig: s, teps: res.GTEPS * 1e9, sec: res.Time}
}

func (b *bench) pagerankUnit(u *unit, tr *tracer, o *obs.Observer) error {
	start := time.Now()
	cfg, err := b.w.machine(o, 0)
	if err != nil {
		return err
	}
	g, err := b.graph(tr, u.graph)
	if err != nil {
		return err
	}
	u.setup = time.Since(start).Seconds()

	b.attempted++
	before := takeProbe(tr, o)
	m := tr.begin("algos.run")
	res, err := algos.PageRank(cfg, g, b.w.iterations, 0)
	u.kernel = append(u.kernel, tr.end(m))
	if err != nil {
		b.fail("pagerank: %v", err)
		return nil
	}
	if o != nil {
		u.addCall(before, takeProbe(tr, o), 0, 0)
		u.counts["algos.network_bytes"] += float64(res.Info.NetworkBytes)
		u.counts["algos.network_messages"] += float64(res.Info.NetworkMessages)
		u.flightInto(tr, o.Flight)
	}
	if b.tamperRank != nil {
		b.tamperRank(res.Rank)
	}
	m = tr.begin("algos.check")
	err = checkRanks(res.Rank, algos.ReferencePageRank(g, b.w.iterations, 0))
	tr.end(m)
	if err != nil {
		b.fail("pagerank: %v", err)
		return nil
	}
	if !b.check(callKey{u.graph, 0}, prModelled(res)) {
		b.fail("pagerank: modelled output differs from the first run")
		return nil
	}
	u.edges = relaxations(res.Info)
	return nil
}

// relaxations is the PageRank edge count: the edges relaxed in every round.
func relaxations(info *algos.RunInfo) int64 {
	var n int64
	for _, l := range info.Levels {
		n += l.FrontierEdges
	}
	return n
}

func checkRanks(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks, want %d", len(got), len(want))
	}
	var mass, wantMass float64
	for v := range want {
		if !(math.Abs(got[v]-want[v]) <= rankTolerance) {
			return fmt.Errorf("rank[%d] = %v, oracle %v", v, got[v], want[v])
		}
		mass += got[v]
		wantMass += want[v]
	}
	if !(math.Abs(mass-wantMass) <= massTolerance) {
		return fmt.Errorf("rank mass %v, oracle %v", mass, wantMass)
	}
	return nil
}

func prModelled(res *algos.PageRankResult) modelled {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range res.Rank {
		bits := math.Float64bits(r)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	sig := callSig{
		levels: res.Info.Rounds, timeBits: math.Float64bits(res.Info.Time),
		netBytes: res.Info.NetworkBytes, netMessages: res.Info.NetworkMessages,
		rankHash: h.Sum64(),
	}
	return modelled{sig: sig, teps: res.Info.MTEPS(relaxations(res.Info)) * 1e6, sec: res.Info.Time}
}

// probe is the state read around a traced kernel call: the observer's
// registry and the Go runtime's allocation counters.
type probe struct {
	counters map[string]int64
	gauges   map[string]int64
	mem      runtime.MemStats
}

func takeProbe(tr *tracer, o *obs.Observer) probe {
	var p probe
	if o == nil {
		return p
	}
	defer tr.end(tr.begin("obs.read"))
	snap := o.Metrics.Snapshot()
	p.counters, p.gauges = snap.Counters, snap.Gauges
	runtime.ReadMemStats(&p.mem)
	return p
}

// codecFormats are the wire formats the comm layer reports per format.
var codecFormats = []string{"raw", "varint-delta", "bitmap"}

// addCall folds one traced kernel call's counter deltas into the unit's
// sums.
func (u *unit) addCall(before, after probe, nLevels, bottomUp int) {
	d := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	sumPrefix := func(prefix, suffix string) float64 {
		var s float64
		for name := range after.counters {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				s += d(name)
			}
		}
		return s
	}
	add := func(name string, v float64) { u.counts[name] += v }
	add("comm.network_bytes", d("comm.network.bytes"))
	add("comm.network_messages", d("comm.messages.intra-super")+d("comm.messages.inter-super"))
	add("comm.batches", sumPrefix("comm.batches.", ""))
	add("comm.relay_pair_bytes", d("comm.relay.pair_bytes"))
	add("comm.inter_super_bytes", d("comm.bytes.inter-super"))
	add("comm.collective_ops", d("comm.collective.ops"))
	add("comm.max_connections", float64(after.gauges["comm.connections.max"]))
	for _, f := range codecFormats {
		add("comm.codec.bytes."+f, d("comm.codec.bytes."+f))
		add("comm.codec.messages."+f, d("comm.codec.messages."+f))
	}
	add("core.levels", float64(nLevels))
	add("core.bottomup_levels", float64(bottomUp))
	add("core.module_invocations", d("core.module.invocations"))
	add("core.small_batches_mpe", d("core.module.small_batches_mpe"))
	add("core.module_bytes", sumPrefix("core.module.", ".bytes"))
	add("algos.rounds", d("algos.rounds"))
	add("runtime.alloc_mb_per_call", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20))
	add("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	u.calls++
}

// flightInto reads the flight recorder once per checked result: the
// events it has taken (kept plus dropped) and the events its rings
// dropped, summed over the result's kernel calls.
func (u *unit) flightInto(tr *tracer, fr *obs.FlightRecorder) {
	m := tr.begin("obs.read")
	d := fr.Dump()
	tr.end(m)
	u.counts["obs.flight.events"] += float64(int64(len(d.Events)) + d.Dropped)
	u.counts["obs.flight.dropped"] += float64(d.Dropped)
}

// ckptTwin runs the kernel calls of the run's first graph with a
// checkpoint at every level and with checkpointing off, alternating the
// sides call by call, and returns the checkpoint layer's metrics.
// Checkpointing is host-only, so both sides must repeat the modelled
// output of the measured runs exactly.
func (b *bench) ckptTwin() (map[string]float64, error) {
	tr := b.tr
	top := tr.begin("ckpt.twin")
	defer tr.end(top)
	g, err := b.graph(tr, 0)
	if err != nil {
		return nil, err
	}
	calls, err := b.twinCalls(g)
	if err != nil {
		return nil, err
	}
	var on, off float64
	var sizes, encode []float64
	for _, c := range calls {
		runtime.GC() // neither side pays for the other's garbage
		b.attempted++
		m := tr.begin(c.span)
		res, err := c.run()
		secs := tr.end(m)
		if err != nil {
			b.fail("checkpoint twin: %v", err)
			continue
		}
		if !b.check(c.key, res) {
			b.fail("checkpoint twin: modelled output of call %d differs from the measured runs", c.key.call)
		}
		if c.latest == nil {
			off += secs
			continue
		}
		on += secs
		m = tr.begin("ckpt.encode")
		data, ok := c.latest()
		encode = append(encode, tr.end(m))
		if !ok {
			b.fail("checkpoint twin: call %d captured no checkpoint", c.key.call)
		}
		sizes = append(sizes, float64(len(data)))
	}
	return map[string]float64{
		"ckpt.bytes":          median(sizes),
		"ckpt.encode_s":       median(encode),
		"ckpt.overhead_ratio": ratio(on, off),
	}, nil
}

// twinCall is one kernel call of the checkpoint twin.
type twinCall struct {
	key  callKey
	span string
	run  func() (modelled, error)
	// latest encodes the newest checkpoint; nil with checkpointing off.
	latest func() ([]byte, bool)
}

// twinCalls lists the twin's calls on graph g: each BFS root of the graph,
// or one PageRank, first with checkpointing on and then off.
func (b *bench) twinCalls(g *graph.CSR) ([]twinCall, error) {
	o := &obs.Observer{} // algos serves its checkpoint through the observer
	onCfg, err := b.w.machine(o, 1)
	if err != nil {
		return nil, err
	}
	offCfg, _ := b.w.machine(nil, 0)
	if !b.w.isBFS() {
		pagerank := func(cfg core.Config) func() (modelled, error) {
			return func() (modelled, error) {
				res, err := algos.PageRank(cfg, g, b.w.iterations, 0)
				if err != nil {
					return modelled{}, err
				}
				return prModelled(res), nil
			}
		}
		latest := func() ([]byte, bool) {
			if o.Checkpoint == nil {
				return nil, false
			}
			return o.Checkpoint.CheckpointJSON()
		}
		return []twinCall{
			{key: callKey{0, 0}, span: "algos.run", run: pagerank(onCfg), latest: latest},
			{key: callKey{0, 0}, span: "algos.run", run: pagerank(offCfg)},
		}, nil
	}
	onCfg.Obs = nil
	rOn, err := core.NewRunner(onCfg, g)
	if err != nil {
		return nil, err
	}
	rOff, err := core.NewRunner(offCfg, g)
	if err != nil {
		return nil, err
	}
	roots, err := graph500.SampleRoots(g, b.w.roots, b.graphSeed(0))
	if err != nil {
		return nil, err
	}
	bfs := func(r *core.Runner, root graph.Vertex) func() (modelled, error) {
		return func() (modelled, error) {
			res, err := r.Run(root)
			if err != nil {
				return modelled{}, err
			}
			return bfsModelled(res), nil
		}
	}
	var calls []twinCall
	for i, root := range roots {
		calls = append(calls,
			twinCall{key: callKey{0, i}, span: "core.run", run: bfs(rOn, root), latest: rOn.CheckpointJSON},
			twinCall{key: callKey{0, i}, span: "core.run", run: bfs(rOff, root)})
	}
	return calls, nil
}
