package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"swbfs/internal/graph"
)

// tiny shrinks a workload to smoke-test size, keeping its machine shape.
func tiny(w workload) workload {
	w.scale, w.graphs = 10, 2
	if w.isBFS() {
		w.roots = 2
	} else {
		w.iterations = 3
	}
	return w
}

// emitted runs a tiny workload and returns its exit code and the parsed
// last line of its output.
func emitted(t *testing.T, b *bench, traced bool) (int, result) {
	t.Helper()
	out, err := b.run(0.001, traced)
	if err != nil {
		t.Fatalf("%s: %v", b.w.name, err)
	}
	var stdout, stderr bytes.Buffer
	code := emit(b, out, runContext{Workload: b.w.name, Trace: traced}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v (stderr %s)", b.w.name, lines[len(lines)-1], err, stderr.String())
	}
	return code, res
}

// TestEveryMetricEmitted runs all four workloads at tiny scale, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// printed, finite and in the declared unit, and that the outputs pass.
func TestEveryMetricEmitted(t *testing.T) {
	declared := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			code, res := emitted(t, &bench{w: tiny(w), seed: 3}, traced)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, result %+v", w.name, traced, code, res)
			}
			want := declared.EndToEnd
			if traced {
				want = declared.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, d.Name, m.Value)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if !traced && res.Metrics["model_gteps"].Value <= 0 {
				t.Errorf("%s: model_gteps %v", w.name, res.Metrics["model_gteps"].Value)
			}
		}
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) struct{ EndToEnd, PerLayer []declaredMetric } {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return struct{ EndToEnd, PerLayer []declaredMetric }{spec.EndToEnd, spec.PerLayer}
}

// TestCorruptedParentMapFails proves the BFS check checks: one wrong
// parent per call must show in failed and make the run exit non-zero.
func TestCorruptedParentMapFails(t *testing.T) {
	w, _ := workloadByName("bfs-n16-adaptive")
	b := &bench{w: tiny(w), seed: 3, tamperParent: func(parent []graph.Vertex) {
		for v, p := range parent {
			if p != graph.NoVertex && p != graph.Vertex(v) {
				parent[v] = graph.Vertex(v) // a non-root vertex claiming to be its own parent
				return
			}
		}
	}}
	code, res := emitted(t, b, false)
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("corrupted parent maps not caught: exit %d, result %+v", code, res)
	}
}

// TestPerturbedRanksFail proves the PageRank check checks: a rank moved
// by more than the oracle tolerance must show in failed.
func TestPerturbedRanksFail(t *testing.T) {
	w, _ := workloadByName("pagerank-n16")
	b := &bench{w: tiny(w), seed: 3, tamperRank: func(rank []float64) { rank[1] += 2 * rankTolerance }}
	code, res := emitted(t, b, false)
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("perturbed ranks not caught: exit %d, result %+v", code, res)
	}
}

// TestModelGTEPSIgnoresOneTinyComponent pins why model_gteps is a median
// of per-graph harmonic means: one root in a two-vertex component, about
// 3.3e-6 GTEPS, must move it by no more than the spread of the other
// graphs, where a harmonic mean over every root would collapse.
func TestModelGTEPSIgnoresOneTinyComponent(t *testing.T) {
	ref := make(map[callKey]modelled)
	for g := 0; g < 16; g++ {
		for r := 0; r < 8; r++ {
			ref[callKey{g, r}] = modelled{teps: (0.17 + 0.001*float64(g+r)) * 1e9, sec: 1e-3}
		}
	}
	clean, ms := modelledMetrics(ref)
	ref[callKey{5, 3}] = modelled{teps: 3.3e3, sec: 3e-4}
	tinyRoot, _ := modelledMetrics(ref)
	if clean < 0.17 || clean > 0.195 || math.Abs(tinyRoot-clean) > 0.001 {
		t.Fatalf("model_gteps %v without and %v with a tiny-component root", clean, tinyRoot)
	}
	if math.Abs(ms-1) > 1e-9 {
		t.Fatalf("perf.kernel_ms = %v, want 1", ms)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		want, p int
		v       float64
	}{
		{99, 90, 90}, // 99 and 95 leave fewer than ten samples beyond
		{75, 75, 75},
		{50, 50, 50.5}, // the median
	} {
		if v, p := tail(xs, c.want); v != c.v || p != c.p {
			t.Errorf("tail(1..100, %v) = %v at p%v, want %v at p%v", c.want, v, p, c.v, c.p)
		}
	}
	if v, p := tail(xs[:15], 95); p != 50 || v != 8 {
		t.Errorf("tail of 15 samples = %v at p%v, want the median 8 at p50", v, p)
	}
}

func TestSelfTimesReconcile(t *testing.T) {
	tr := newTracer()
	top := tr.begin("bench")
	for _, name := range []string{"graph.gen", "core.run", "core.run"} {
		tr.end(tr.begin(name))
	}
	wall := tr.end(top)
	var sum float64
	for _, v := range tr.selfTimes(1) {
		sum += v
	}
	if math.Abs(sum-wall) > 1e-9 {
		t.Fatalf("self times sum to %v, root span lasted %v", sum, wall)
	}
}
