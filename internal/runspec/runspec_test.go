package runspec

import (
	"flag"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// parse binds the run flags on a fresh FlagSet, parses args and resolves
// them the way a CLI does.
func parse(t *testing.T, args ...string) *Spec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Bind(fs, "test")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s.Start()
	return s
}

// TestBindRegistersSharedFlags pins the shared flag set: every name, once,
// with the default both CLIs had before the flags moved here.
func TestBindRegistersSharedFlags(t *testing.T) {
	want := map[string]string{
		"workers": "0", "codec": "", "codec-backward": "", "metrics": "false",
		"trace-out": "", "chrome-trace": "", "serve": "", "cpuprofile": "",
		"exec-trace": "", "flight-dump": "", "checkpoint-every": "0",
		"checkpoint": "", "resume": "", "chaos-seed": "0", "chaos-plan": "",
		"level-timeout": "0s", "straggler-factor": "0",
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs, "test")
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered flags = %v\nwant %v", got, want)
	}
}

func TestZeroSpecIsPlainRun(t *testing.T) {
	cfg := core.DefaultConfig(8)
	if got := (Spec{}).Apply(cfg); !reflect.DeepEqual(got, cfg) {
		t.Fatalf("zero spec changed the config:\n got %+v\nwant %+v", got, cfg)
	}
}

// TestChaosSeedDrawsOverConfigNodes: a seeded plan is drawn over the node
// count of the configuration it is applied to, on a fresh run and on a
// resume alike, so every fault names a node that exists.
func TestChaosSeedDrawsOverConfigNodes(t *testing.T) {
	s := parse(t, "-chaos-seed", "5")
	for _, tc := range []struct {
		name  string
		nodes int
		apply func(core.Config) core.Config
	}{
		{"fresh/4", 4, s.Apply},
		{"resume/4", 4, s.ApplyHost},
		{"fresh/16", 16, s.Apply},
		{"resume/2", 2, s.ApplyHost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.apply(core.DefaultConfig(tc.nodes))
			if want := chaos.NewRandomPlan(5, tc.nodes); cfg.Chaos == nil || !reflect.DeepEqual(*cfg.Chaos, want) {
				t.Fatalf("plan = %v, want %v", cfg.Chaos, want)
			}
			for _, f := range cfg.Chaos.Faults {
				if f.Node < 0 || f.Node >= tc.nodes {
					t.Fatalf("fault %v names node %d of a %d-node machine", f, f.Node, tc.nodes)
				}
			}
		})
	}
}

func TestExplicitPlanWinsOverSeed(t *testing.T) {
	s := parse(t, "-chaos-seed", "5", "-chaos-plan", "kill@1:l1:data/forward:0")
	cfg := s.Apply(core.DefaultConfig(4))
	if cfg.Chaos == nil || cfg.Chaos.String() != "kill@1:l1:data/forward:0" {
		t.Fatalf("plan = %v, want the explicit kill", cfg.Chaos)
	}
}

func TestApplyOverlaysHostFieldsAndCodecs(t *testing.T) {
	s := parse(t, "-workers", "3", "-level-timeout", "2s", "-straggler-factor", "1.5",
		"-trace-out", "t.json", "-checkpoint-every", "2", "-checkpoint", "c.json",
		"-codec", "varint-delta", "-codec-backward", "adaptive")
	cfg := s.Apply(core.DefaultConfig(4))
	if cfg.Workers != 3 || cfg.LevelTimeout != 2*time.Second || cfg.StragglerFactor != 1.5 ||
		cfg.CheckpointEvery != 2 || cfg.CheckpointPath != "c.json" {
		t.Fatalf("host fields not overlaid: %+v", cfg)
	}
	if cfg.FlightDump != "t.json.flight.json" {
		t.Fatalf("flight dump = %q, want the -trace-out default", cfg.FlightDump)
	}
	if cfg.Obs == nil || cfg.Obs.Flight == nil {
		t.Fatal("-trace-out did not attach an observer with a shared flight recorder")
	}
	if cfg.Codec != (comm.VarintDeltaCodec{}) || cfg.CodecBackward != (comm.AdaptiveCodec{}) {
		t.Fatalf("codecs = %v / %v", cfg.Codec, cfg.CodecBackward)
	}
	// A resume keeps the checkpoint's own codecs.
	resumed := core.DefaultConfig(4)
	resumed.Codec = comm.BitmapCodec{}
	if got := s.ApplyHost(resumed); got.Codec != (comm.BitmapCodec{}) || got.CodecBackward != nil || got.Workers != 3 {
		t.Fatalf("ApplyHost overrode the machine: codec %v / %v, workers %d", got.Codec, got.CodecBackward, got.Workers)
	}
}

// TestOpenResumeUsesCheckpointMachine checkpoints a 4-node run with one
// codec, then reopens it under a spec naming another codec and a chaos
// seed: the machine (codec included) comes from the checkpoint, and the
// seeded plan is drawn over the checkpoint's 4 nodes, not a flag default.
func TestOpenResumeUsesCheckpointMachine(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt.json")
	cfg := core.DefaultConfig(4)
	cfg.Codec = comm.VarintDeltaCodec{}
	cfg.CheckpointEvery, cfg.CheckpointPath = 1, path
	runner, err := core.NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(1); err != nil {
		t.Fatal(err)
	}

	s := parse(t, "-resume", path, "-chaos-seed", "5", "-codec", "bitmap", "-workers", "2")
	c, got, err := s.OpenResume()
	if err != nil {
		t.Fatal(err)
	}
	if c.Kernel != "bfs" || got.Nodes != 4 || got.Workers != 2 {
		t.Fatalf("resume config: kernel %q, %d nodes, %d workers", c.Kernel, got.Nodes, got.Workers)
	}
	if got.Codec != (comm.VarintDeltaCodec{}) {
		t.Fatalf("codec = %v, want the checkpoint's varint-delta", got.Codec)
	}
	if want := chaos.NewRandomPlan(5, 4); got.Chaos == nil || !reflect.DeepEqual(*got.Chaos, want) {
		t.Fatalf("plan = %v, want %v", got.Chaos, want)
	}
}
