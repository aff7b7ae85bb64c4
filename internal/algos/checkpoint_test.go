package algos

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"swbfs/internal/ckpt"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// ckptMachine is the kernel-parity machine: small enough that every kernel
// finishes in milliseconds, wide enough to exercise both transports'
// batching.
func ckptMachine(transport core.Transport) core.Config {
	cfg := machine(4, transport)
	cfg.Workers = 2
	return cfg
}

// runKernelCkpt runs one kernel three ways — plain, checkpointing every
// boundary to path, and resumed from the written mid-run file — and
// demands bitwise-identical results (reflect.DeepEqual covers the float
// slices exactly).
func runKernelCkpt(t *testing.T, name string, run func(cfg core.Config, from *ckpt.Checkpoint) (any, error)) {
	t.Helper()
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(name+"/"+transport.String(), func(t *testing.T) {
			base, err := run(ckptMachine(transport), nil)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "kernel.ckpt.json")
			cfg := ckptMachine(transport)
			cfg.CheckpointEvery = 2
			cfg.CheckpointPath = path
			withCk, err := run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, withCk) {
				t.Fatalf("checkpointing on changed the result:\n  off: %+v\n  on:  %+v", base, withCk)
			}

			c, err := ckpt.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rcfg, err := core.ConfigFromCheckpoint(c.Config)
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Workers = 4 // resume at a different host width
			resumed, err := run(rcfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, resumed) {
				t.Fatalf("resume from round %d differs from uninterrupted run:\n  base:    %+v\n  resumed: %+v",
					c.Level, base, resumed)
			}
		})
	}
}

func TestKernelCheckpointResumeParity(t *testing.T) {
	g := kron(t, 8, 21)
	wg := weighted(t, g, 9)
	root := firstConnected(t, g)

	runKernelCkpt(t, "sssp", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return SSSP(cfg, wg, root)
		}
		return ResumeSSSP(cfg, wg, root, from)
	})
	runKernelCkpt(t, "wcc", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return WCC(cfg, g)
		}
		return ResumeWCC(cfg, g, from)
	})
	runKernelCkpt(t, "pagerank", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return PageRank(cfg, g, 5, 0)
		}
		return ResumePageRank(cfg, g, 5, 0, from)
	})
	runKernelCkpt(t, "kcore", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		// k=4 peels in cascades over several rounds, so a mid-run boundary
		// exists for the resume leg.
		if from == nil {
			return KCore(cfg, g, 4)
		}
		return ResumeKCore(cfg, g, 4, from)
	})
	runKernelCkpt(t, "delta-sssp", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return DeltaSSSP(cfg, wg, root, 16)
		}
		return ResumeDeltaSSSP(cfg, wg, root, 16, from)
	})
	runKernelCkpt(t, "betweenness", func(cfg core.Config, from *ckpt.Checkpoint) (any, error) {
		if from == nil {
			return Betweenness(cfg, g, []graph.Vertex{root})
		}
		return ResumeBetweenness(cfg, g, []graph.Vertex{root}, from)
	})
}

// firstConnected picks the lowest vertex with a neighbour, so rooted
// kernels traverse more than one round.
func firstConnected(t *testing.T, g *graph.CSR) graph.Vertex {
	t.Helper()
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		if g.Degree(v) > 0 {
			return v
		}
	}
	t.Fatal("graph has no edges")
	return graph.NoVertex
}

// TestKernelResumeRejects covers the driver's refuse-to-load paths.
func TestKernelResumeRejects(t *testing.T) {
	g := kron(t, 8, 21)
	cfg := ckptMachine(core.TransportDirect)
	cfg.CheckpointEvery = 1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "wcc.ckpt.json")
	if _, err := WCC(cfg, g); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeWCC(ckptMachine(core.TransportRelay), g, c); err == nil {
		t.Fatal("wrong-transport (fingerprint) checkpoint accepted")
	}
	if _, err := ResumeKCore(ckptMachine(core.TransportDirect), g, 2, c); err == nil {
		t.Fatal("wrong-kernel checkpoint accepted")
	}
	if _, err := ResumeWCC(ckptMachine(core.TransportDirect), g, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
}

// TestKernelRestoreRejectsHostileState resumes every kernel from a real
// checkpoint whose node-0 payload has one field replaced: a local index
// outside [0, NumVertices) or a bitmap of the wrong word count. Each must
// fail the resume with an error instead of indexing past a per-vertex
// array on a node goroutine.
func TestKernelRestoreRejectsHostileState(t *testing.T) {
	g := kron(t, 8, 21)
	wg := weighted(t, g, 9)
	root := firstConnected(t, g)
	kernels := map[string]func(cfg core.Config, from *ckpt.Checkpoint) error{
		"sssp": func(cfg core.Config, from *ckpt.Checkpoint) error {
			if from == nil {
				_, err := SSSP(cfg, wg, root)
				return err
			}
			_, err := ResumeSSSP(cfg, wg, root, from)
			return err
		},
		"wcc": func(cfg core.Config, from *ckpt.Checkpoint) error {
			if from == nil {
				_, err := WCC(cfg, g)
				return err
			}
			_, err := ResumeWCC(cfg, g, from)
			return err
		},
		"kcore": func(cfg core.Config, from *ckpt.Checkpoint) error {
			if from == nil {
				_, err := KCore(cfg, g, 4)
				return err
			}
			_, err := ResumeKCore(cfg, g, 4, from)
			return err
		},
		"delta-sssp": func(cfg core.Config, from *ckpt.Checkpoint) error {
			if from == nil {
				_, err := DeltaSSSP(cfg, wg, root, 16)
				return err
			}
			_, err := ResumeDeltaSSSP(cfg, wg, root, 16, from)
			return err
		},
		"betweenness": func(cfg core.Config, from *ckpt.Checkpoint) error {
			if from == nil {
				_, err := Betweenness(cfg, g, []graph.Vertex{root})
				return err
			}
			_, err := ResumeBetweenness(cfg, g, []graph.Vertex{root}, from)
			return err
		},
	}
	locals := func(v int64) func(json.RawMessage) any {
		return func(json.RawMessage) any { return []int64{v} }
	}
	growBitmap := func(old json.RawMessage) any {
		var words []uint64
		if err := json.Unmarshal(old, &words); err != nil {
			t.Fatal(err)
		}
		return append(words, 0)
	}
	cases := []struct {
		kernel, field string
		value         func(old json.RawMessage) any
	}{
		{"kcore", "removal", locals(-1)},
		{"kcore", "removal", locals(1 << 40)},
		{"delta-sssp", "light_req", locals(-1)},
		{"delta-sssp", "light_req", locals(1 << 40)},
		{"delta-sssp", "heavy_set", locals(-1)},
		{"delta-sssp", "heavy_set", locals(1 << 40)},
		{"sssp", "active", growBitmap},
		{"wcc", "active", growBitmap},
		{"betweenness", "frontier", growBitmap},
	}
	saved := map[string]*ckpt.Checkpoint{}
	for _, tc := range cases {
		c := saved[tc.kernel]
		if c == nil {
			cfg := ckptMachine(core.TransportDirect)
			cfg.CheckpointEvery = 1
			cfg.CheckpointPath = filepath.Join(t.TempDir(), tc.kernel+".ckpt.json")
			if err := kernels[tc.kernel](cfg, nil); err != nil {
				t.Fatal(err)
			}
			var err error
			if c, err = ckpt.ReadFile(cfg.CheckpointPath); err != nil {
				t.Fatal(err)
			}
			saved[tc.kernel] = c
		}
		bad := *c
		bad.Nodes = append([]ckpt.NodeState(nil), c.Nodes...)
		bad.Nodes[0].Data = replaceAlgoField(t, c.Nodes[0].Data, tc.field, tc.value)
		if err := kernels[tc.kernel](ckptMachine(core.TransportDirect), &bad); err == nil {
			t.Errorf("%s: hostile %s accepted", tc.kernel, tc.field)
		}
	}
}

// replaceAlgoField rewrites one field of a driver node payload's kernel
// state.
func replaceAlgoField(t *testing.T, data json.RawMessage, field string, value func(json.RawMessage) any) json.RawMessage {
	t.Helper()
	var node map[string]json.RawMessage
	var algo map[string]json.RawMessage
	if err := json.Unmarshal(data, &node); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(node["algo"], &algo); err != nil {
		t.Fatal(err)
	}
	if _, ok := algo[field]; !ok {
		t.Fatalf("kernel state has no field %q", field)
	}
	var err error
	if algo[field], err = json.Marshal(value(algo[field])); err != nil {
		t.Fatal(err)
	}
	if node["algo"], err = json.Marshal(algo); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(node)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKernelResumeRejectsBoundary covers the shared resume validator's
// boundary rules from the driver side: a checkpoint's level must be the
// count of levels it completed.
func TestKernelResumeRejectsBoundary(t *testing.T) {
	g := kron(t, 8, 21)
	cfg := ckptMachine(core.TransportDirect)
	cfg.CheckpointEvery = 1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "wcc.ckpt.json")
	if _, err := WCC(cfg, g); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{-1, c.Level - 1} {
		bad := *c
		bad.Level = level
		if _, err := ResumeWCC(ckptMachine(core.TransportDirect), g, &bad); err == nil {
			t.Errorf("checkpoint level %d with %d completed levels accepted", level, len(c.Machine.Levels))
		}
	}
}
