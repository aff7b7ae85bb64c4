// Package obs is the unified observability layer of the simulation: a
// lock-cheap metrics registry (atomic counters, gauges and fixed
// log-scale-bucket histograms) plus a structured per-level BFS trace
// recorder.
//
// The paper's evaluation hinges on knowing exactly where time and traffic
// go — per-level frontier sizes, direction switches, relay batching
// ratios, and byte counts per fat-tree link class. Before this package the
// repository had three disconnected counter mechanisms (fabric link-class
// counters, shuffle pass statistics, comm per-node send counters) and no
// whole-run timeline. obs gives every subsystem one place to report:
//
//   - Registry accumulates named metrics across an arbitrary number of
//     BFS runs. Hot paths pay one atomic add per update; name resolution
//     happens once, at registration time.
//   - TraceRecorder collects one RunTrace per rooted BFS, each a sequence
//     of LevelSpans (level number, direction chosen, frontier size, edges
//     relaxed, modelled wall time, bytes moved per link class). Summed
//     span times and byte counts reconcile exactly with the run's
//     reported totals (see RunTrace.Reconcile).
//   - SpanRecorder collects per-node, per-module work spans (the
//     Forward/Backward Generator–Relay–Handler modules of the pipelined
//     module mapping) plus the relay→handler flow links, exported as
//     Chrome trace-event JSON by WriteChromeTrace.
//   - ProgressBroker fans live run progress (current root, level,
//     direction, frontier size) out to subscribers — the /events SSE
//     endpoint of the telemetry server.
//   - Serve exposes everything over HTTP: /metrics (Prometheus text
//     exposition), /traces (RunTrace JSON), /events (SSE) and
//     net/http/pprof.
//   - StartProfile is the opt-in host-side pprof / runtime-trace hook.
//     The CLIs' -cpuprofile / -exec-trace flags (internal/runspec) start
//     it around the whole command.
//
// Producers hold an *Observer (core.Config.Obs); a nil Observer — or a
// nil field inside it — disables that part at zero cost.
//
// See docs/OBSERVABILITY.md for the metrics taxonomy and a worked example.
package obs

// Observer bundles the observability sinks a BFS run feeds. Any field may
// be nil to disable that sink.
type Observer struct {
	// Metrics accumulates named counters/gauges/histograms across runs.
	Metrics *Registry
	// Trace records one RunTrace per rooted BFS.
	Trace *TraceRecorder
	// Spans records per-module work spans and relay flow links for the
	// Chrome trace export (enabled by -chrome-trace).
	Spans *SpanRecorder
	// Progress fans live per-level progress out to subscribers (the
	// /events endpoint of the telemetry server).
	Progress *ProgressBroker
	// Flight is the black-box event recorder drained into post-mortem
	// dumps on abort and served at /debug/flight. The engines allocate a
	// private recorder when this is nil — flight recording is always on —
	// so attach one here only to share it with the telemetry server or a
	// -flight-dump flag.
	Flight *FlightRecorder
	// Checkpoint serves the latest level-boundary checkpoint at
	// /debug/checkpoint. Each run session installs its checkpoint latch
	// here when checkpointing is enabled (core.Config.CheckpointEvery > 0).
	Checkpoint CheckpointSource
}

// CheckpointSource is anything that can serve its latest checkpoint as
// JSON. The run session's checkpoint latch implements it; obs stays ignorant
// of the checkpoint schema (the ckpt package imports obs, not the other
// way round).
type CheckpointSource interface {
	// CheckpointJSON returns the latest checkpoint's canonical JSON
	// encoding, or ok=false when no level boundary has been captured yet.
	CheckpointJSON() ([]byte, bool)
}

// New returns an Observer with the metrics and trace sinks enabled (the
// two every reporting path consumes). Spans and Progress are opt-in —
// attach them when a Chrome trace or a live server is requested.
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Trace: NewTraceRecorder()}
}

// MetricsOf returns o.Metrics, tolerating a nil receiver.
func (o *Observer) MetricsOf() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// TraceOf returns o.Trace, tolerating a nil receiver.
func (o *Observer) TraceOf() *TraceRecorder {
	if o == nil {
		return nil
	}
	return o.Trace
}

// SpansOf returns o.Spans, tolerating a nil receiver.
func (o *Observer) SpansOf() *SpanRecorder {
	if o == nil {
		return nil
	}
	return o.Spans
}

// ProgressOf returns o.Progress, tolerating a nil receiver.
func (o *Observer) ProgressOf() *ProgressBroker {
	if o == nil {
		return nil
	}
	return o.Progress
}

// FlightOf returns o.Flight, tolerating a nil receiver.
func (o *Observer) FlightOf() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// CheckpointOf returns o.Checkpoint, tolerating a nil receiver.
func (o *Observer) CheckpointOf() CheckpointSource {
	if o == nil {
		return nil
	}
	return o.Checkpoint
}
