// Package runspec is the host side of a run, defined once for both CLIs
// and every experiment sweep: the shared command-line flags, their
// overlay onto a machine core.Config, and the observer, telemetry server,
// profile and exit reporting those flags switch on.
//
// A Spec changes how a run executes and what it records, never what it
// models: worker width, watchdog, straggler detection, fault injection,
// flight dumps, checkpointing and observability all leave every modelled
// number bit-identical (fault plans that complete included; see
// docs/CHAOS.md). The one machine knob it carries is the wire codec pair,
// which a fresh run takes from -codec/-codec-backward and a resumed run
// takes from its checkpoint.
//
// The zero Spec is the plain run: nothing observed, nothing injected.
package runspec

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/obs"
)

// Spec is the host side of a run. The fields down to Obs are what a
// measurement sees (see Apply); the rest is what the command does around
// its measurements (see Start and Finish).
type Spec struct {
	// Workers is the per-node host worker-pool width (core.Config.Workers).
	Workers int
	// Codec and CodecBackward, when non-nil, replace the machine's wire
	// codecs on a fresh run.
	Codec, CodecBackward comm.Codec
	// Chaos is an explicit fault plan injected into every run; it wins
	// over ChaosSeed.
	Chaos *chaos.Plan
	// ChaosSeed, when non-zero and Chaos is nil, draws a random fault plan
	// for each configuration over that configuration's own node count.
	ChaosSeed       int64
	LevelTimeout    time.Duration
	StragglerFactor float64
	FlightDump      string
	CheckpointEvery int
	CheckpointPath  string
	// Obs receives every run's metrics, traces, spans and flight events.
	Obs *obs.Observer

	// Metrics, TraceOut, ChromeTrace and Serve switch on Obs and name its
	// outputs; Profile wraps the whole command; Resume names the
	// checkpoint a command continues instead of starting fresh.
	Metrics     bool
	TraceOut    string
	ChromeTrace string
	Serve       string
	Profile     obs.ProfileConfig
	Resume      string

	prog                 string // prefixes console messages
	codec, codecBackward string // -codec / -codec-backward, resolved by Start
	chaosPlan            string // -chaos-plan, parsed by Start
	server               *obs.Server
	stopProfile          func() error
}

// Bind registers the shared run flags on fs and returns the Spec they
// fill; call Start once fs is parsed. prog prefixes the command's console
// messages.
func Bind(fs *flag.FlagSet, prog string) *Spec {
	s := &Spec{prog: prog}
	fs.IntVar(&s.Workers, "workers", 0, "host worker goroutines per simulated node, the CPE-cluster stand-in (0 = GOMAXPROCS/nodes, 1 = serial; results are identical for every width)")
	fs.StringVar(&s.codec, "codec", "", "wire codec for every channel: raw | varint-delta | bitmap | adaptive (empty = raw; see docs/ARCHITECTURE.md)")
	fs.StringVar(&s.codecBackward, "codec-backward", "", "wire codec override for the backward (bottom-up) channel only: raw | varint-delta | bitmap | adaptive (empty = no override)")
	fs.BoolVar(&s.Metrics, "metrics", false, "print the unified metrics registry after the command (see docs/OBSERVABILITY.md)")
	fs.StringVar(&s.TraceOut, "trace-out", "", "write the structured per-level trace of every functional run (one RunTrace per root) as JSON to this file")
	fs.StringVar(&s.ChromeTrace, "chrome-trace", "", "write the run timelines (per-node module tracks + relay flow arrows) as Chrome trace-event JSON to this file")
	fs.StringVar(&s.Serve, "serve", "", "serve live telemetry on this address during the command: /metrics (Prometheus), /traces, /events (SSE), /debug/pprof")
	fs.StringVar(&s.Profile.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the whole command to this file")
	fs.StringVar(&s.Profile.ExecTrace, "exec-trace", "", "write a runtime/trace execution trace of the whole command to this file")
	fs.StringVar(&s.FlightDump, "flight-dump", "", "write the flight-recorder post-mortem of an aborted run to this file (default: <-trace-out>.flight.json when -trace-out is set; render with flightview)")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 0, "write a resumable machine checkpoint every N completed levels of each functional run (0 = off; see docs/CHAOS.md)")
	fs.StringVar(&s.CheckpointPath, "checkpoint", "", "checkpoint file path (default: <-flight-dump>.ckpt.json on abort when -checkpoint-every is set)")
	fs.StringVar(&s.Resume, "resume", "", "resume an interrupted BFS run from this checkpoint file and print its final result")
	fs.Int64Var(&s.ChaosSeed, "chaos-seed", 0, "inject a seeded random fault plan into every functional run, drawn over that run's node count (0 = off; see docs/CHAOS.md)")
	fs.StringVar(&s.chaosPlan, "chaos-plan", "", "inject an explicit fault plan into every functional run, comma-separated fault specs like kill@2:l1:data/forward:0 (wins over -chaos-seed; see docs/CHAOS.md)")
	fs.DurationVar(&s.LevelTimeout, "level-timeout", 0, "abort a run if no level completes within this duration (0 = no watchdog)")
	fs.Float64Var(&s.StragglerFactor, "straggler-factor", 0, "flag nodes whose per-level module host time exceeds this multiple of the fleet mean (0 = off)")
	return s
}

// Start resolves the parsed flags and switches on the command's host
// side: the wire codecs and fault plan, the observer (shared by every run
// so /debug/flight and a post-mortem see the whole command), the
// telemetry server and the profile. Any failure ends the command.
func (s *Spec) Start() {
	var err error
	if s.Codec, err = comm.CodecByName(s.codec); err != nil {
		s.Fatal(err)
	}
	if s.CodecBackward, err = comm.CodecByName(s.codecBackward); err != nil {
		s.Fatal(err)
	}
	if s.chaosPlan != "" {
		plan, err := chaos.ParsePlan(s.chaosPlan)
		if err != nil {
			s.Fatal(err)
		}
		s.Chaos = &plan
	}
	if s.FlightDump == "" && s.TraceOut != "" {
		s.FlightDump = s.TraceOut + ".flight.json"
	}
	if s.Metrics || s.TraceOut != "" || s.ChromeTrace != "" || s.Serve != "" {
		s.Obs = obs.New()
		s.Obs.Flight = obs.NewFlightRecorder(0)
		if s.ChromeTrace != "" {
			s.Obs.Spans = obs.NewSpanRecorder()
		}
	}
	if s.Serve != "" {
		s.Obs.Progress = obs.NewProgressBroker()
		if s.server, err = obs.Serve(s.Serve, s.Obs); err != nil {
			s.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s: telemetry on %s (/metrics /traces /events /debug/pprof)\n", s.prog, s.server.URL())
	}
	if s.stopProfile, err = obs.StartProfile(s.Profile); err != nil {
		s.Fatal(err)
	}
}

// Apply overlays the spec onto the machine configuration of a fresh run:
// the host-side fields (ApplyHost) plus any wire codec the spec names.
func (s Spec) Apply(cfg core.Config) core.Config {
	if s.Codec != nil {
		cfg.Codec = s.Codec
	}
	if s.CodecBackward != nil {
		cfg.CodecBackward = s.CodecBackward
	}
	return s.ApplyHost(cfg)
}

// ApplyHost overlays only the host-side fields, the knobs no modelled
// number depends on. A seeded fault plan is drawn over cfg.Nodes, so its
// node IDs always exist in the machine it is injected into.
func (s Spec) ApplyHost(cfg core.Config) core.Config {
	cfg.Workers = s.Workers
	cfg.LevelTimeout = s.LevelTimeout
	cfg.StragglerFactor = s.StragglerFactor
	cfg.FlightDump = s.FlightDump
	cfg.CheckpointEvery = s.CheckpointEvery
	cfg.CheckpointPath = s.CheckpointPath
	cfg.Obs = s.Obs
	cfg.Chaos = s.Chaos
	if s.Chaos == nil && s.ChaosSeed != 0 {
		plan := chaos.NewRandomPlan(s.ChaosSeed, cfg.Nodes)
		cfg.Chaos = &plan
	}
	return cfg
}

// OpenResume reads the BFS checkpoint named by -resume and returns it with
// the machine configuration to continue it on: the checkpoint's own
// machine, codecs included, with only the host-side fields overlaid. The
// caller rebuilds the graph; the checkpoint's fingerprint rejects a
// mismatched one.
func (s *Spec) OpenResume() (*ckpt.Checkpoint, core.Config, error) {
	c, err := ckpt.ReadFile(s.Resume)
	if err != nil {
		return nil, core.Config{}, err
	}
	if c.Kernel != "bfs" {
		return nil, core.Config{}, fmt.Errorf("checkpoint %s holds a %q run; -resume supports the bfs kernel (resume other kernels via the algos API, see docs/CHAOS.md)", s.Resume, c.Kernel)
	}
	cfg, err := core.ConfigFromCheckpoint(c.Config)
	if err != nil {
		return nil, core.Config{}, err
	}
	fmt.Fprintf(os.Stderr, "%s: resuming bfs from root %d at level boundary %d (%s)\n", s.prog, c.Root, c.Level, s.Resume)
	return c, s.ApplyHost(cfg), nil
}

// Finish ends a successful command: it stops the profile, checks that
// every recorded trace reconciles, prints the metrics table, writes the
// trace files, and then keeps the telemetry server up until Ctrl-C.
func (s *Spec) Finish() {
	s.stop()
	if s.Obs != nil {
		if err := s.emit(); err != nil {
			s.Fatal(err)
		}
	}
	if s.server != nil {
		fmt.Fprintf(os.Stderr, "%s: done; telemetry still on %s — Ctrl-C to exit\n", s.prog, s.server.URL())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		s.server.Close()
	}
}

// Fatal ends the command with exit status 1. An aborted run prints its
// partial per-level report first, so a chaos-injected failure is still
// diagnosable from the console.
func (s *Spec) Fatal(err error) {
	s.stop()
	var ae *core.AbortError
	if errors.As(err, &ae) {
		s.printAbortReport(ae)
	} else {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.prog, err)
	}
	os.Exit(1)
}

// stop ends the profile, once.
func (s *Spec) stop() {
	if s.stopProfile == nil {
		return
	}
	if err := s.stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: stopping profile: %v\n", s.prog, err)
	}
	s.stopProfile = nil
}

// emit verifies every run's books balance, then prints the metrics table
// and writes the structured and Chrome traces.
func (s *Spec) emit() error {
	for _, run := range s.Obs.Trace.Runs() {
		if err := run.Reconcile(); err != nil {
			return fmt.Errorf("trace for root %d does not reconcile: %w", run.Root, err)
		}
	}
	if s.Metrics {
		fmt.Println()
		s.Obs.Metrics.WriteTable(os.Stdout)
	}
	if s.TraceOut != "" {
		if err := writeFile(s.TraceOut, s.Obs.Trace.WriteJSON); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if s.ChromeTrace != "" {
		err := writeFile(s.ChromeTrace, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, s.Obs.Trace.Runs(), s.Obs.Spans.Runs())
		})
		if err != nil {
			return fmt.Errorf("writing chrome trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: chrome trace written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", s.prog, s.ChromeTrace)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printAbortReport renders the partial result of an aborted run: the root
// cause plus every level that completed before the fabric died, and where
// the post-mortem and the abort checkpoint went.
func (s *Spec) printAbortReport(ae *core.AbortError) {
	fmt.Fprintf(os.Stderr, "%s: run from root %d ABORTED: %v\n", s.prog, ae.Root, ae.Cause)
	fmt.Fprintf(os.Stderr, "%s: partial result: %d completed levels\n", s.prog, len(ae.CompletedLevels))
	for _, l := range ae.CompletedLevels {
		fmt.Fprintf(os.Stderr, "    L%-2d %-9s work=%-10d sent=%-10d msgs=%-6d %s\n",
			l.Level, l.Direction, l.MaxNodeProcessedBytes, l.MaxNodeSentBytes,
			l.MaxNodeMessages, l.Net.String())
	}
	if ae.FlightPath != "" {
		fmt.Fprintf(os.Stderr, "%s: flight-recorder post-mortem written to %s (render with flightview)\n", s.prog, ae.FlightPath)
	} else if ae.FlightDump != nil {
		fmt.Fprintf(os.Stderr, "%s: flight-recorder post-mortem captured %d event(s); pass -flight-dump to write it to a file\n",
			s.prog, len(ae.FlightDump.Events))
	}
	if ae.CheckpointPath != "" {
		fmt.Fprintf(os.Stderr, "%s: checkpoint at level boundary %d written to %s (continue with -resume)\n",
			s.prog, ae.Checkpoint.Level, ae.CheckpointPath)
	} else if ae.Checkpoint != nil {
		fmt.Fprintf(os.Stderr, "%s: checkpoint at level boundary %d captured in memory; pass -checkpoint or -flight-dump to write it to a file\n",
			s.prog, ae.Checkpoint.Level)
	}
}
