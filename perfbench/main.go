// Command perfbench is the repository's benchmark. It runs one workload
// (see workload.go and README.md) for a given time, checks every kernel
// output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 1.23, "unit": "s"}, ...}}
//
// preceded by a report line carrying the run context (seeds, host
// fingerprint, commit) and the qualifiers of the tail percentile.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload bfs-n64-relay --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: everything a reader needs to compare two
// results, plus the end-to-end metric the contract line cannot carry
// (fail_frac is always 0 when the run is correct).
type report struct {
	Context        runContext         `json:"context"`
	FailFrac       float64            `json:"fail_frac"`
	Failures       []string           `json:"failures,omitempty"`
	TailPercentile int                `json:"kernel_ms_tail_percentile,omitempty"`
	KernelCalls    int                `json:"kernel_calls"`
	Units          int                `json:"checked_results"`
	TracedUnits    int                `json:"traced_results,omitempty"`
	Reconcile      map[string]float64 `json:"uncovered_share,omitempty"`
	// CalibrationMs is calibrationMs before and after the run.
	CalibrationMs [2]float64        `json:"calibration_ms"`
	Metrics       map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "graph and root seed")
	seconds := fs.Float64("seconds", 20, "minimum measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	gitSHA := fs.String("git-sha", "unknown", "commit the binary was built from")
	spansOut := fs.String("spans", "", "file the traced run's spans are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	b := &bench{w: w, seed: *seed}
	calBefore := calibrationMs()
	out, err := b.run(*seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *spansOut != "" && b.tr != nil {
		if err := os.MkdirAll(filepath.Dir(*spansOut), 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := b.tr.write(*spansOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	out.calibrationMs = [2]float64{calBefore, calibrationMs()}
	return emit(b, out, runContext{
		Workload: w.name, Seed: *seed, DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed,
		Seconds: *seconds, Trace: *trace == 1, GitSHA: *gitSHA, Host: hostFingerprint(),
	}, stdout, stderr)
}

// emit prints the report line and the result line, and returns the exit
// code: non-zero when any kernel output was wrong.
func emit(b *bench, out *outcome, ctx runContext, stdout, stderr io.Writer) int {
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	defs := endToEnd
	if ctx.Trace {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured (%v)\n", d.name, v)
			return 1
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	rep := report{
		Context: ctx, FailFrac: float64(b.failed) / float64(b.attempted), Failures: b.failures,
		KernelCalls: out.kernelCalls, Units: out.units, TracedUnits: out.tracedUnits,
		Reconcile: out.reconcile, CalibrationMs: out.calibrationMs, Metrics: metrics,
	}
	if !ctx.Trace {
		rep.TailPercentile = out.tailPercentile
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	for _, v := range []any{rep, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}
