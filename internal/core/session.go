package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/fabric"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// A Session is one run's operational contract on the simulated machine,
// shared by the BFS runner and the algos round driver. It owns, once for
// both loops:
//
//   - run start: the flight recorder's run (or its restored rings), the
//     per-run chaos injector, the network and the node endpoints;
//   - resume: checkpoint validation and the machine-wide restore (network
//     counters, completed levels, accounting snapshot, watchdog tick);
//   - the level watchdog and the SPMD spawn/wait/abort protocol, with the
//     post-mortem flight dump and the abort checkpoint;
//   - node 0's per-level accounting window;
//   - the level-boundary checkpoint latch.
//
// The caller keeps its per-node loop body, its node payload capture and
// restore, and its result type. "Level" is the session's one noun for a
// synchronous step: a BFS level or an algos round.
type Session struct {
	cfg      Config
	kernel   string
	root     graph.Vertex
	identity ckpt.MachineConfig
	resumed  bool
	start    int
	shape    comm.GroupShape

	net    *comm.Network
	model  perf.Model
	flight *obs.FlightRecorder
	inj    *chaos.Injector
	ckpt   *checkpointLatch
	// captureMachine adds the caller's machine-wide state (BFS: policy
	// and hub bitmap) to node 0's boundary capture; nil for none.
	captureMachine func(*ckpt.MachineState)

	// tick feeds the watchdog: node 0 advances it once per completed
	// level. before is node 0's counter snapshot at the open window.
	tick   atomic.Int64
	before fabric.Snapshot

	mu     sync.Mutex
	levels []perf.LevelStats
	// lastSnap is node 0's counter snapshot after the final recorded
	// level; the delta to the end-of-run totals is the termination
	// traffic (the final emptiness collectives) the trace reports
	// separately so its books balance.
	lastSnap fabric.Snapshot
}

// SessionSpec identifies one run.
type SessionSpec struct {
	// Kernel names the algorithm ("bfs", "sssp", ...) in the flight
	// record, in checkpoints and in resume checks.
	Kernel string
	// Root is the run's identity vertex (graph.NoVertex when rootless).
	Root graph.Vertex
	// Resume, when non-nil, is the checkpoint the run continues from. It
	// is validated against the run before any machine state is touched.
	Resume *ckpt.Checkpoint

	// Runner hooks: its long-lived recorder (nil: resolve one with
	// flightOf) and its node-0 machine capture.
	flight         *obs.FlightRecorder
	captureMachine func(*ckpt.MachineState)
}

// OpenSession starts one run of cfg's machine over g: it validates the
// configuration and a resume checkpoint, opens (or restores) the flight record, rebuilds the
// chaos injector — so every run against the same plan replays the same
// faults, the determinism contract of docs/CHAOS.md — and builds the
// network. Close it when the run's results have been read.
func OpenSession(cfg Config, g *graph.CSR, spec SessionSpec) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	shape, _ := shapeFor(cfg)
	s := &Session{
		cfg:            cfg,
		kernel:         spec.Kernel,
		root:           spec.Root,
		identity:       machineConfig(cfg, g),
		shape:          shape,
		flight:         spec.flight,
		captureMachine: spec.captureMachine,
	}
	resume := spec.Resume
	if resume != nil {
		if err := s.validateResume(resume); err != nil {
			return nil, err
		}
		s.resumed, s.start = true, resume.Level
	}

	// A resume restores the flight rings instead of opening a new run, so
	// the run index and every pre-checkpoint event continue where the
	// original left off.
	if s.flight == nil {
		s.flight = flightOf(cfg)
	}
	if resume == nil {
		s.flight.BeginRun(int64(spec.Root), spec.Kernel, cfg.Nodes, cfg.Transport.String())
	} else {
		s.flight.RestoreState(resume.Machine.Flight)
	}

	// A resume seeds the log with the checkpoint's already-fired faults (a
	// fired kill must be stripped from the plan by the caller with
	// chaos.Plan.Without); with no plan, an empty-schedule injector still
	// reports them.
	if cfg.Chaos != nil {
		s.inj = chaos.NewInjector(*cfg.Chaos, cfg.Obs.MetricsOf())
	} else if resume != nil && len(resume.Machine.Injections) > 0 {
		s.inj = chaos.NewInjector(chaos.Plan{}, cfg.Obs.MetricsOf())
	}
	if s.inj != nil {
		s.inj.SetFlight(s.flight)
		if resume != nil {
			s.inj.SeedLog(resume.Machine.Injections)
		}
	}

	var err error
	s.net, err = comm.NewNetwork(comm.Config{
		Nodes:           cfg.Nodes,
		SuperNodeSize:   cfg.SuperNodeSize,
		BatchBytes:      cfg.BatchBytes,
		MPIMemoryBudget: cfg.MPIMemoryBudget,
		Codec:           cfg.Codec,
		CodecBackward:   cfg.CodecBackward,
		Chaos:           s.inj,
		Flight:          s.flight,
	})
	if err != nil {
		return nil, err
	}
	s.model = perf.NewModel(s.net.Topo, cfg.Engine)
	if resume != nil {
		if err := s.net.RestoreState(resume.Machine.Net); err != nil {
			s.net.Close()
			return nil, err
		}
		s.levels = append([]perf.LevelStats(nil), resume.Machine.Levels...)
		s.lastSnap = resume.Machine.LastSnap
		s.tick.Store(int64(s.start))
	}

	// A resumed run that dies before its next boundary still has a
	// checkpoint to offer: the one it resumed from.
	s.ckpt = &checkpointLatch{latest: resume}
	if cfg.CheckpointEvery > 0 && cfg.Obs != nil {
		cfg.Obs.Checkpoint = s.ckpt // serve /debug/checkpoint
	}
	return s, nil
}

// flightOf returns the observer-attached flight recorder (shared, so
// /debug/flight sees it) or a private one. Flight recording is always on:
// the black box costs one ring append per event and is the only record of
// what happened when a run aborts.
func flightOf(cfg Config) *obs.FlightRecorder {
	if f := cfg.Obs.FlightOf(); f != nil {
		return f
	}
	return obs.NewFlightRecorder(0)
}

// validateResume checks a checkpoint against the run it is being loaded
// into. A written checkpoint's Level is the count of levels it completed,
// so any other boundary is hostile.
func (s *Session) validateResume(c *ckpt.Checkpoint) error {
	switch {
	case c.Kernel != s.kernel:
		return fmt.Errorf("core: checkpoint is for kernel %q, this run resumes %q", c.Kernel, s.kernel)
	case c.Root != int64(s.root):
		return fmt.Errorf("core: checkpoint root %d, this run uses %d", c.Root, s.root)
	case c.Fingerprint != s.identity.Fingerprint():
		return fmt.Errorf("core: checkpoint fingerprint mismatch:\n  file: %s\n  run:  %s", c.Fingerprint, s.identity.Fingerprint())
	case len(c.Nodes) != s.cfg.Nodes:
		return fmt.Errorf("core: checkpoint has %d node states, machine has %d", len(c.Nodes), s.cfg.Nodes)
	case c.Level < 0:
		return fmt.Errorf("core: checkpoint level %d is negative", c.Level)
	case c.Level != len(c.Machine.Levels):
		return fmt.Errorf("core: checkpoint level %d does not match its %d completed levels", c.Level, len(c.Machine.Levels))
	}
	return nil
}

// Close releases the run's network.
func (s *Session) Close() { s.net.Close() }

// Network is the run's machine: collectives, counters and teardown.
func (s *Session) Network() *comm.Network { return s.net }

// Model is the timing model of the run's topology and engine.
func (s *Session) Model() perf.Model { return s.model }

// Workers is the resolved host worker-pool width.
func (s *Session) Workers() int { return s.cfg.Workers }

// Start is the level the node loops enter: 0, or a resume's boundary.
func (s *Session) Start() int { return s.start }

// Levels returns the completed levels' statistics; read it after Run.
func (s *Session) Levels() []perf.LevelStats { return s.levels }

// Injections returns the faults injected so far, deterministically
// sorted; nil without chaos (or on a nil session).
func (s *Session) Injections() []chaos.Fault {
	if s == nil {
		return nil
	}
	return s.inj.Log()
}

// Endpoint builds node's transport endpoint: relay on the configured
// group shape (reporting flows to the span recorder), or direct.
func (s *Session) Endpoint(node int) (comm.Endpoint, error) {
	if s.cfg.Transport != TransportRelay {
		return comm.NewDirectEndpoint(s.net, node), nil
	}
	ep, err := comm.NewRelayEndpoint(s.net, node, s.shape)
	if err != nil {
		return nil, err
	}
	ep.SetFlowSink(s.cfg.Obs.SpansOf())
	return ep, nil
}

// OpenLevel opens node 0's accounting window for level. Node 0 calls it
// before the level's first collective, so every byte of the level lands
// in exactly one level's delta: no peer traffic can be recorded before
// node 0 joins that collective.
func (s *Session) OpenLevel(level int) {
	s.before = s.net.Counters.Snapshot()
	s.flight.Control(obs.FlightRoundOpen, -1, level, "")
}

// CloseLevel closes node 0's window after the level's post-level
// collectives: it records st with the window's traffic as st.Net, feeds
// the watchdog and stamps the flight record with detail.
func (s *Session) CloseLevel(st perf.LevelStats, detail string) {
	after := s.net.Counters.Snapshot()
	st.Net = after.Sub(s.before)
	s.mu.Lock()
	s.levels = append(s.levels, st)
	s.lastSnap = after
	s.mu.Unlock()
	s.tick.Add(1)
	s.flight.Control(obs.FlightRoundClose, -1, st.Level, detail)
}

// Checkpoint stages node's capture at the boundary after level, when
// checkpointing is on. Every node calls it after its post-level
// collectives and before joining the next level's first one (see
// checkpoint.go for why that window is race-free). A failed capture or
// periodic file write tears the run down: silently continuing would lose
// the restart guarantee.
func (s *Session) Checkpoint(node, level int, capture func() (json.RawMessage, error)) error {
	if s.cfg.CheckpointEvery <= 0 {
		return nil
	}
	err := s.stage(node, level, capture)
	if err != nil {
		s.net.Abort()
	}
	return err
}

// Run drives body on every node SPMD-style under the level watchdog. It
// returns nil when the run completed, or the *AbortError of a torn-down
// one: the original cause (consequence errors of the teardown are
// filtered), the completed levels, the injection log, the post-mortem
// flight dump and the newest complete checkpoint.
func (s *Session) Run(body func(node int) error) error {
	disarm := s.armWatchdog()
	errs := make([]error, s.cfg.Nodes)
	var wg sync.WaitGroup
	for node := range errs {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			errs[node] = body(node)
		}(node)
	}
	wg.Wait()
	fired := disarm()

	var cause error
	aborted := s.net.Aborted()
	for _, err := range errs {
		if err == nil {
			continue
		}
		aborted = true
		if cause == nil && !errors.Is(err, comm.ErrAborted) {
			cause = err
		}
	}
	if !aborted {
		return nil
	}
	if cause == nil {
		cause = fired
	}
	if cause == nil {
		cause = errors.New("core: run aborted without a reported cause")
	}
	ae := &AbortError{
		Root:            s.root,
		Cause:           cause,
		CompletedLevels: append([]perf.LevelStats(nil), s.levels...),
		Injections:      s.inj.Log(),
	}
	ae.FlightDump, ae.FlightPath = s.postMortem(cause)
	ae.Checkpoint = s.ckpt.Latest()
	ae.CheckpointPath = s.writeAbortCheckpoint(ae.Checkpoint)
	return ae
}

// armWatchdog starts the level watchdog when Config.LevelTimeout is set:
// if node 0's tick stops advancing for a whole timeout window, it poisons
// the network so every blocked module unwinds. disarm stops it, waits for
// it to exit and returns its error if it fired.
func (s *Session) armWatchdog() (disarm func() error) {
	timeout := s.cfg.LevelTimeout
	if timeout <= 0 {
		return func() error { return nil }
	}
	if !s.resumed {
		// A resumed run's restored rings already hold the arm event.
		s.flight.Control(obs.FlightWatchdogArm, -1, -1, "level timeout "+timeout.String())
	}
	fired := make(chan error, 1)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(timeout)
		defer t.Stop()
		last := s.tick.Load()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cur := s.tick.Load()
				if cur != last {
					last = cur
					continue
				}
				detail := "no level completed within " + timeout.String()
				s.flight.Control(obs.FlightWatchdogFire, -1, int(cur), detail)
				fired <- fmt.Errorf("%w: %s", ErrLevelTimeout, detail)
				s.net.Abort()
				return
			}
		}
	}()
	return func() error {
		close(stop)
		<-done
		select {
		case err := <-fired:
			return err
		default:
			return nil
		}
	}
}

// postMortem closes the flight record of an aborted run: it stamps the
// abort event, drains the recorder into a dump, and writes the dump to
// Config.FlightDump when set (best-effort — a failed write still leaves
// the in-memory dump on the AbortError).
func (s *Session) postMortem(cause error) (*obs.FlightDump, string) {
	s.flight.Control(obs.FlightAbort, -1, len(s.levels), cause.Error())
	d := s.flight.Dump()
	d.Aborted = true
	d.Cause = cause.Error()
	path := ""
	if s.cfg.FlightDump != "" {
		if err := obs.WriteFlightDumpFile(s.cfg.FlightDump, d); err == nil {
			path = s.cfg.FlightDump
		}
	}
	return d, path
}

// ModuleSpans lays the run's per-node module work out on the modelled
// timeline: each completed level's spans start at the level's start and
// last bytes/bandwidth at the engine's module bandwidth. work returns a
// node's recorded level number, module names and byte counts for the li-th
// completed level (nil bytes when it recorded none). Modules run
// concurrently (one CPE cluster each, Figure 10), so spans on different
// tracks of the same level overlap by design; a single module's span never
// outlasts its level because the level time bounds the slowest node's
// makespan from above.
func (s *Session) ModuleSpans(work func(node, li int) (level int, modules []string, bytes []int64)) []obs.ModuleSpan {
	bw := s.cfg.Engine.Bandwidth()
	workers := 0
	if s.cfg.Workers > 1 {
		workers = s.cfg.Workers // attribute pool width only when fanned out
	}
	var spans []obs.ModuleSpan
	start := 0.0
	for li, st := range s.levels {
		for node := 0; node < s.cfg.Nodes; node++ {
			level, modules, bytes := work(node, li)
			for i, b := range bytes {
				if b > 0 {
					spans = append(spans, obs.ModuleSpan{
						Node: node, Module: modules[i], Level: level,
						Start: start, Dur: float64(b) / bw, Bytes: b,
						Workers: workers,
					})
				}
			}
		}
		start += s.model.LevelTime(st)
	}
	return spans
}

// Trace converts the completed run into a RunTrace whose books balance
// (RunTrace.Reconcile): level wall times sum to total and level byte
// counts plus the termination traffic sum to the fabric's grand total.
// Call it before Close; the caller adds its kernel's result fields.
func (s *Session) Trace(total float64) obs.RunTrace {
	final := s.net.Counters.Snapshot()
	term := final.Sub(s.lastSnap)
	rt := obs.RunTrace{
		Root:         int64(s.root),
		TotalSeconds: total,

		TerminationCollectiveBytes: term.CollectiveBytes,
		TerminationWireBytes:       term.NetworkBytes(),
		TotalNetworkBytes:          final.NetworkBytes(),

		CodecTraffic: s.net.CodecTraffic(),
		Levels:       make([]obs.LevelSpan, 0, len(s.levels)),
	}
	for _, st := range s.levels {
		rt.Levels = append(rt.Levels, obs.LevelSpan{
			Level:            st.Level,
			Direction:        st.Direction,
			FrontierVertices: st.FrontierVertices,
			EdgesRelaxed:     st.FrontierEdges,
			WallSeconds:      s.model.LevelTime(st),
			Rounds:           st.Rounds,

			LoopbackBytes:   st.Net.Bytes[fabric.Loopback],
			IntraSuperBytes: st.Net.Bytes[fabric.IntraSuper],
			InterSuperBytes: st.Net.Bytes[fabric.InterSuper],

			CollectiveBytes:     st.Net.CollectiveBytes,
			CollectiveWireBytes: st.Net.CollectiveWireBytes(),
			CollectiveOps:       st.Net.CollectiveOps,

			NetworkBytes:    st.Net.NetworkBytes(),
			NetworkMessages: st.Net.Messages[fabric.IntraSuper] + st.Net.Messages[fabric.InterSuper],

			MaxNodeProcessedBytes: st.MaxNodeProcessedBytes,
			MaxNodeSentBytes:      st.MaxNodeSentBytes,
		})
	}
	return rt
}
