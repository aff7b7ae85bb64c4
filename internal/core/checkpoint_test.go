package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/graph"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

func ckptConfig(transport Transport, workers int) Config {
	return Config{
		Nodes:              4,
		SuperNodeSize:      2,
		Transport:          transport,
		Engine:             perf.EngineMPE,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
		Workers:            workers,
	}
}

// TestCheckpointParityAndResume proves the three core guarantees on both
// transports: (1) checkpointing on changes nothing — the Result is
// DeepEqual to a run with checkpointing off; (2) a run resumed from a
// mid-run checkpoint file finishes with a bitwise-identical Result; (3)
// the checkpoint file round-trips through the codec.
func TestCheckpointParityAndResume(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 9, 42)
	const root = graph.Vertex(5) // a well-connected root: the run spans several levels
	for _, transport := range []Transport{TransportDirect, TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			baseRunner, err := NewRunner(ckptConfig(transport, 2), g)
			if err != nil {
				t.Fatal(err)
			}
			base, err := baseRunner.Run(root)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "bfs.ckpt.json")
			cfg := ckptConfig(transport, 2)
			cfg.CheckpointEvery = 2
			cfg.CheckpointPath = path
			r, err := NewRunner(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("checkpointing on changed the result:\n  off: %+v\n  on:  %+v", base, res)
			}
			if r.ckpt.written == 0 {
				t.Fatal("no checkpoint file written")
			}

			// The file holds a mid-run boundary (the newest multiple of
			// CheckpointEvery); resume from it on a fresh runner, at a
			// different worker width, and demand a bitwise-identical Result.
			c, err := ckpt.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.Level <= 0 || c.Level >= len(base.Levels)+1 {
				t.Fatalf("checkpoint level %d outside the run's %d levels", c.Level, len(base.Levels))
			}
			rcfg, err := ConfigFromCheckpoint(c.Config)
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Workers = 4
			rr, err := NewRunner(rcfg, g)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := rr.Resume(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, resumed) {
				t.Fatalf("resumed result differs from uninterrupted run:\n  base:    %+v\n  resumed: %+v", base, resumed)
			}
			checkBFSTree(t, g, root, resumed.Parent)
		})
	}
}

// TestCheckpointBytesDeterministic demands byte-identical checkpoint files
// for repeated runs of the same seed and configuration, and across worker
// widths — the file-level determinism contract.
func TestCheckpointBytesDeterministic(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 9, 7)
	files := make([][]byte, 0, 3)
	for _, workers := range []int{1, 1, 4} {
		path := filepath.Join(t.TempDir(), "ck.json")
		cfg := ckptConfig(TransportRelay, workers)
		cfg.CheckpointEvery = 1
		cfg.CheckpointPath = path
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(5); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("same config, same seed: checkpoint files differ between runs")
	}
	if !bytes.Equal(files[0], files[2]) {
		t.Fatal("checkpoint files differ between worker widths 1 and 4")
	}
}

// TestCheckpointJSONSource exercises the obs.CheckpointSource hook the
// /debug/checkpoint endpoint serves.
func TestCheckpointJSONSource(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 8, 11)
	cfg := ckptConfig(TransportDirect, 1)
	cfg.CheckpointEvery = 1
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.CheckpointJSON(); ok {
		t.Fatal("CheckpointJSON reported data before any boundary")
	}
	if _, err := r.Run(1); err != nil {
		t.Fatal(err)
	}
	data, ok := r.CheckpointJSON()
	if !ok {
		t.Fatal("CheckpointJSON empty after a checkpointed run")
	}
	c, err := ckpt.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c.Kernel != "bfs" || c.Root != 1 {
		t.Fatalf("served checkpoint identifies %s/%d, want bfs/1", c.Kernel, c.Root)
	}
}

// TestResumeRejects covers the refuse-to-load paths: wrong kernel, wrong
// fingerprint, wrong node count.
func TestResumeRejects(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	g := kron(t, 8, 13)
	cfg := ckptConfig(TransportDirect, 1)
	cfg.CheckpointEvery = 1
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(2); err != nil {
		t.Fatal(err)
	}
	c := r.LastCheckpoint()
	if c == nil {
		t.Fatal("no checkpoint after run")
	}

	if _, err := r.Resume(nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	bad := *c
	bad.Kernel = "sssp"
	if _, err := r.Resume(&bad); err == nil {
		t.Fatal("wrong-kernel checkpoint accepted")
	}
	other, err := NewRunner(ckptConfig(TransportRelay, 1), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Resume(c); err == nil {
		t.Fatal("wrong-transport (fingerprint) checkpoint accepted")
	}
	bad = *c
	bad.Nodes = bad.Nodes[:2]
	if _, err := r.Resume(&bad); err == nil {
		t.Fatal("truncated node list accepted")
	}
}

// hostileCheckpoint runs a checkpointed 3-node BFS over a scale-9 graph —
// its 512 vertices split 171/171/170, so no node's bitmaps end on a word
// boundary — and returns the runner and its last checkpoint.
func hostileCheckpoint(t testing.TB) (*Runner, *ckpt.Checkpoint) {
	t.Helper()
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(TransportDirect, 1)
	cfg.Nodes = 3
	cfg.CheckpointEvery = 1
	r, err := NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(5); err != nil {
		t.Fatal(err)
	}
	return r, r.LastCheckpoint()
}

// withNodeData returns a copy of c whose node payload is rewritten by edit.
func withNodeData(t testing.TB, c *ckpt.Checkpoint, node int, edit func(*bfsNodeData)) *ckpt.Checkpoint {
	t.Helper()
	var d bfsNodeData
	if err := json.Unmarshal(c.Nodes[node].Data, &d); err != nil {
		t.Fatal(err)
	}
	edit(&d)
	data, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	bad := *c
	bad.Nodes = append([]ckpt.NodeState(nil), c.Nodes...)
	bad.Nodes[node].Data = data
	return &bad
}

// TestResumeRejectsHostileCheckpoint is the regression test of a resume
// crash: a frontier bit past the node's 171 vertices (bit 63 of its last
// word) used to reach LocalSubgraph.Degree on a node goroutine and panic
// the process. Every malformed bitmap, policy state or boundary must now
// fail Resume with an error: a checkpoint's level is never negative and
// always equals the count of levels it completed.
func TestResumeRejectsHostileCheckpoint(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	r, c := hostileCheckpoint(t)
	cases := map[string]*ckpt.Checkpoint{
		"curr bit past the vertices": withNodeData(t, c, 0, func(d *bfsNodeData) {
			d.Curr[len(d.Curr)-1] |= 1 << 63
		}),
		"visited bit past the vertices": withNodeData(t, c, 0, func(d *bfsNodeData) {
			d.Visited[len(d.Visited)-1] |= 1 << 63
		}),
		"curr word missing": withNodeData(t, c, 1, func(d *bfsNodeData) {
			d.Curr = d.Curr[:len(d.Curr)-1]
		}),
		"visited word extra": withNodeData(t, c, 2, func(d *bfsNodeData) {
			d.Visited = append(d.Visited, 0)
		}),
	}
	hub := *c
	hub.Machine.HubVisited = append(append([]uint64(nil), c.Machine.HubVisited...), 0)
	cases["hub bitmap word extra"] = &hub
	policy := *c
	policy.Machine.Policy = 7
	cases["policy state not a direction"] = &policy
	negative := *c
	negative.Level = -1
	cases["negative level"] = &negative
	ahead := *c
	ahead.Level = c.Level + 1
	cases["level past its completed levels"] = &ahead
	for name, bad := range cases {
		if _, err := r.Resume(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
