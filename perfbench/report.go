package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"swbfs/internal/graph500"
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. fail_frac is reported through attempted/failed and in the
// report line, not here: it must always be 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"host_mteps", "MTEPS"},
	{"kernel_ms_p50", "ms"},
	{"kernel_ms_tail", "ms"},
	{"model_gteps", "GTEPS"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A metric of a layer a workload
// does not use reads 0 on that workload.
var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"graph.csr_s", "s"},
	{"graph.edges", "count"},
	{"core.partition_s", "s"},
	{"core.run_s", "s"},
	{"core.levels", "count"},
	{"core.bottomup_levels", "count"},
	{"core.module_invocations", "count"},
	{"core.small_batches_mpe", "count"},
	{"core.module_bytes", "B"},
	{"comm.network_bytes", "B"},
	{"comm.network_messages", "count"},
	{"comm.avg_message_bytes", "B"},
	{"comm.batches", "count"},
	{"comm.relay_pair_bytes", "B"},
	{"comm.inter_super_bytes", "B"},
	{"comm.collective_ops", "count"},
	{"comm.max_connections", "count"},
	{"comm.codec.bytes.raw", "B"},
	{"comm.codec.bytes.varint-delta", "B"},
	{"comm.codec.bytes.bitmap", "B"},
	{"comm.codec.messages.raw", "count"},
	{"comm.codec.messages.varint-delta", "count"},
	{"comm.codec.messages.bitmap", "count"},
	{"obs.flight.events", "count"},
	{"obs.flight.dropped", "count"},
	{"obs.read_s", "s"},
	{"obs.trace_overhead", "ratio"},
	{"ckpt.bytes", "B"},
	{"ckpt.encode_s", "s"},
	{"ckpt.overhead_ratio", "ratio"},
	{"graph500.validate_s", "s"},
	{"algos.run_s", "s"},
	{"algos.rounds", "count"},
	{"algos.network_bytes", "B"},
	{"algos.network_messages", "count"},
	{"algos.avg_message_bytes", "B"},
	{"algos.check_s", "s"},
	{"perf.kernel_ms", "ms"},
	{"runtime.alloc_mb_per_call", "MB"},
	{"runtime.gc_cycles", "count"},
	{"bench.self_s", "s"},
}

// spanLayers maps span names to the per-layer metric carrying their
// summed self time per checked result.
var spanLayers = map[string]string{
	"graph.gen":         "graph.gen_s",
	"graph.csr":         "graph.csr_s",
	"core.partition":    "core.partition_s",
	"core.run":          "core.run_s",
	"graph500.validate": "graph500.validate_s",
	"obs.read":          "obs.read_s",
	"algos.run":         "algos.run_s",
	"algos.check":       "algos.check_s",
	"bench":             "bench.self_s",
}

// reconcileTolerance bounds, in a traced checked result, the share of the
// result's wall time and of its set-up time that no layer span covers.
const reconcileTolerance = 0.05

// outcome is everything one run measured.
type outcome struct {
	metrics map[string]float64
	// tailPercentile and kernelCalls qualify kernel_ms_tail.
	tailPercentile int
	kernelCalls    int
	units          int
	tracedUnits    int
	// reconcile is the largest uncovered share seen in a traced result.
	reconcile map[string]float64
	// calibrationMs is the host calibration before and after the run.
	calibrationMs [2]float64
}

// run measures the workload for at least seconds of checked results,
// cycling over the run's graphs, and at least one whole cycle. Untraced,
// it yields the end-to-end metrics. Traced, it runs each graph untraced
// and then traced (their wall-time ratio is the tracing overhead), then
// runs the checkpoint twin, and yields the per-layer metrics.
func (b *bench) run(seconds float64, traced bool) (*outcome, error) {
	if traced {
		b.tr = newTracer()
	}
	// One untimed checked result lets lazy runtime set-up finish. Its
	// graph runs again in the first cycle, where its output must repeat.
	runtime.GC()
	if _, err := b.unit(false, 0); err != nil {
		return nil, err
	}
	perGraph := 1
	if traced {
		perGraph = 2
	}
	var plain, withTrace []*unit
	start := time.Now()
	for i := 0; ; i++ {
		// Start every result from a collected heap, so one result's
		// garbage is not charged to the next.
		runtime.GC()
		t := traced && i%2 == 1
		u, err := b.unit(t, i/perGraph%b.w.graphs)
		if err != nil {
			return nil, err
		}
		if t {
			withTrace = append(withTrace, u)
		} else {
			plain = append(plain, u)
		}
		if i+1 >= perGraph*b.w.graphs && time.Since(start).Seconds() >= seconds {
			break
		}
	}

	out := &outcome{metrics: make(map[string]float64), units: len(plain), tracedUnits: len(withTrace)}
	out.metrics["model_gteps"], out.metrics["perf.kernel_ms"] = modelledMetrics(b.ref)
	if !traced {
		b.endToEnd(out, plain)
		return out, nil
	}
	if err := b.layers(out, plain, withTrace); err != nil {
		return nil, err
	}
	return out, nil
}

// modelledMetrics returns model_gteps and perf.kernel_ms from the
// modelled output of every input the run checked. model_gteps is the
// median over the run's graphs of each graph's Graph500 harmonic mean. A
// root in a two-vertex component traverses one edge in a few hundred
// modelled microseconds; pooled over every root of the run, one such root
// would pull the harmonic mean down by two orders of magnitude, and
// whether a run samples one depends on the seed. Both read 0 when no
// kernel call passed its checks; the run then reports itself incorrect.
func modelledMetrics(ref map[callKey]modelled) (gteps, kernelMs float64) {
	if len(ref) == 0 {
		return 0, 0
	}
	byGraph := make(map[int][]float64)
	var secs []float64
	for k, m := range ref {
		byGraph[k.graph] = append(byGraph[k.graph], m.teps)
		secs = append(secs, m.sec)
	}
	var graphTEPS []float64
	for _, teps := range byGraph {
		graphTEPS = append(graphTEPS, graph500.Summarize(teps, true).Mean)
	}
	// Sum in sorted order, so the total does not depend on map order.
	sort.Float64s(secs)
	var sec float64
	for _, s := range secs {
		sec += s
	}
	return median(graphTEPS) / 1e9, sec / float64(len(ref)) * 1e3
}

func (b *bench) endToEnd(out *outcome, plain []*unit) {
	var setup, wall, kernelMs []float64
	var edges int64
	var kernelSecs float64
	for _, u := range plain {
		setup = append(setup, u.setup)
		wall = append(wall, u.wall)
		for _, k := range u.kernel {
			kernelMs = append(kernelMs, k*1e3)
			kernelSecs += k
		}
		edges += u.edges
	}
	tailMs, pct := tail(kernelMs, b.w.tailPercentile)
	out.tailPercentile, out.kernelCalls = pct, len(kernelMs)
	m := out.metrics
	m["setup_s"] = median(setup)
	m["wall_s"] = median(wall)
	m["host_mteps"] = float64(edges) / kernelSecs / 1e6
	m["kernel_ms_p50"] = median(kernelMs)
	m["kernel_ms_tail"] = tailMs
	m["peak_rss_mb"] = peakRSSMB()
}

func (b *bench) layers(out *outcome, plain, withTrace []*unit) error {
	m := out.metrics
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	perSpan := make(map[string][]float64)
	var wall []float64
	out.reconcile = map[string]float64{"wall": 0, "setup": 0}
	for _, u := range withTrace {
		self := b.tr.selfTimes(u.spanID)
		for span, name := range spanLayers {
			perSpan[name] = append(perSpan[name], self[span])
		}
		wall = append(wall, u.wall)
		covered := self["graph.gen"] + self["graph.csr"] + self["core.partition"]
		out.reconcile["wall"] = math.Max(out.reconcile["wall"], self["bench"]/u.wall)
		out.reconcile["setup"] = math.Max(out.reconcile["setup"], math.Abs(u.setup-covered)/u.setup)
	}
	for name, xs := range perSpan {
		m[name] = median(xs)
	}
	// Counts come from the first traced result on each graph, so they
	// depend on the seed alone, not on how many cycles the run made.
	sums := make(map[string]float64)
	var calls int
	seen := make(map[int]bool)
	for _, u := range withTrace {
		if seen[u.graph] {
			continue
		}
		seen[u.graph] = true
		for name, v := range u.counts {
			sums[name] += v
		}
		calls += u.calls
	}
	for name, v := range sums {
		m[name] = ratio(v, float64(calls))
	}
	var edges int64
	for _, e := range b.edges {
		edges += e
	}
	m["graph.edges"] = float64(edges) / float64(len(b.edges))
	m["comm.avg_message_bytes"] = ratio(m["comm.network_bytes"], m["comm.network_messages"])
	m["algos.avg_message_bytes"] = ratio(m["algos.network_bytes"], m["algos.network_messages"])
	var plainWall []float64
	for _, u := range plain {
		plainWall = append(plainWall, u.wall)
	}
	m["obs.trace_overhead"] = median(wall)/median(plainWall) - 1

	twin, err := b.ckptTwin()
	if err != nil {
		return fmt.Errorf("checkpoint twin: %w", err)
	}
	for name, v := range twin {
		m[name] = v
	}
	for what, gap := range out.reconcile {
		if gap > reconcileTolerance {
			return fmt.Errorf("layer spans leave %.1f%% of a traced result's %s time uncovered (tolerance %.0f%%)",
				gap*100, what, reconcileTolerance*100)
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
