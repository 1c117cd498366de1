// Command cprbench is the same-host benchmark of the CPR system. It runs
// one named workload for a fixed time, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// separate traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// The line before it is the full run record: host fingerprint, seed,
// every measured value with its exactness mark, and sample counts.
//
// Build and run it through run.py, which builds this binary and cprd
// from the surrounding checkout:
//
//	python3 cprbench/run.py --workload flow_ecc --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value. Exact marks values that repeat
// bit-for-bit for a given seed and program version, so a later change
// may claim a difference in them as a count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0, in BENCHMARK.json order.
var endToEnd = []string{
	"setup_s", "latency_ms", "throughput_per_s", "peak_rss_mb", "objective", "routed_pct",
}

// perLayer lists the per-layer metrics every workload reports with
// -trace 1. A layer the workload never reaches reports 0.
var perLayer = []string{
	"trace.op_ms", "trace.overhead_ms", "trace.uncovered_ms",
	"ops.samples", "ops.p50_ms", "ops.tail_ms", "ops.tail_pct",
	"router.busy_s", "router.alloc_mb", "router.mallocs",
	"router.regions", "router.negotiation_iters",
	"router.initial_congested", "router.congestion_unrouted", "router.drc_unrouted",
	"router.routed_ratio", "router.vias", "router.wirelength",
	"pinaccess.busy_s", "pinaccess.intervals",
	"conflict.busy_s", "conflict.sets",
	"lagrange.busy_s", "lagrange.converged_ratio",
	"pinopt.alloc_mb",
	"pipeline.key_s", "pipeline.route_artifacts_s", "pipeline.codec_s",
	"rerun.panels_reused_ratio", "rerun.regions_spliced_ratio", "rerun.nets_rerouted",
	"designio.read_s", "designio.hash_s",
	"cache.design_hit_ratio", "cache.panel_hit_ratio", "cache.route_hit_ratio",
	"jobs.queue_wait_p50_ms", "jobs.rejected",
	"server.submit_hit_p50_ms", "server.submit_miss_p50_ms", "server.submit_eco_p50_ms",
}

// units gives every metric's unit; exact marks the ones that repeat
// bit-for-bit for a seed.
var units = map[string]string{
	"setup_s": "s", "latency_ms": "ms", "throughput_per_s": "1/s", "peak_rss_mb": "MB",
	"objective": "sqrt_len", "routed_pct": "%",
	"trace.op_ms": "ms", "trace.overhead_ms": "ms", "trace.uncovered_ms": "ms",
	"ops.samples": "count", "ops.p50_ms": "ms", "ops.tail_ms": "ms", "ops.tail_pct": "%",
	"router.busy_s": "s", "router.alloc_mb": "MB", "router.mallocs": "count",
	"router.regions": "count", "router.negotiation_iters": "count",
	"router.initial_congested": "count", "router.congestion_unrouted": "count",
	"router.drc_unrouted": "count", "router.routed_ratio": "ratio",
	"router.vias": "count", "router.wirelength": "count",
	"pinaccess.busy_s": "s", "pinaccess.intervals": "count",
	"conflict.busy_s": "s", "conflict.sets": "count",
	"lagrange.busy_s": "s", "lagrange.converged_ratio": "ratio",
	"pinopt.alloc_mb": "MB",
	"pipeline.key_s":  "s", "pipeline.route_artifacts_s": "s", "pipeline.codec_s": "s",
	"rerun.panels_reused_ratio": "ratio", "rerun.regions_spliced_ratio": "ratio",
	"rerun.nets_rerouted": "count",
	"designio.read_s":     "s", "designio.hash_s": "s",
	"cache.design_hit_ratio": "ratio", "cache.panel_hit_ratio": "ratio",
	"cache.route_hit_ratio":  "ratio",
	"jobs.queue_wait_p50_ms": "ms", "jobs.rejected": "count",
	"server.submit_hit_p50_ms": "ms", "server.submit_miss_p50_ms": "ms",
	"server.submit_eco_p50_ms": "ms",
}

var exact = map[string]bool{
	"objective": true, "routed_pct": true,
	"ops.samples":    false,
	"router.regions": true, "router.negotiation_iters": true,
	"router.initial_congested": true, "router.congestion_unrouted": true,
	"router.drc_unrouted": true, "router.routed_ratio": true,
	"router.vias": true, "router.wirelength": true,
	"pinaccess.intervals": true, "conflict.sets": true, "lagrange.converged_ratio": true,
	"rerun.panels_reused_ratio": true, "rerun.regions_spliced_ratio": true,
	"rerun.nets_rerouted": true,
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // checkout root
	cprd    string // cprd binary (service workload)
	workers int
}

// outcome is what a workload returns: the attempted/failed counts, any
// check failures, and every metric it measured.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	notes     map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
}

// fail records a failed operation (or check) with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	why string
	run func(cfg config) (*outcome, error)
}

var workloads = map[string]workload{
	"flow_ecc":      {"cold CPR flow on Table 2's ecc: the router does ~97% of the work", runFlowECC},
	"pinopt_top":    {"pin-access optimisation alone on Table 2's top: no routing", runPinoptTop},
	"service_mixed": {"cprd under two closed-loop clients: hits, fresh flows and base_job edits", runService},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (flow_ecc, pinopt_top, service_mixed)")
		seed    = flag.Int64("seed", 0, "workload seed; 0 gives Table 2's own circuit seeds")
		seconds = flag.Float64("seconds", 20, "measured time per run, in seconds")
		trace   = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics instead")
		root    = flag.String("root", ".", "checkout root (for the run fingerprint)")
		cprd    = flag.String("cprd", "", "cprd binary, for the service_mixed workload")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "cprbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "cprbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, cprd: *cprd, workers: runtime.NumCPU(),
	}
	start := time.Now()
	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cprbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *name, cfg, out, time.Since(start)); err != nil {
		fmt.Fprintf(os.Stderr, "cprbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints the run record and, last, the result line.
func report(w io.Writer, name string, cfg config, out *outcome, wall time.Duration) error {
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	result := map[string]metric{}
	for _, n := range names {
		v, ok := out.metrics[n]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", name, n)
		}
		result[n] = metric{Value: v, Unit: units[n]}
	}
	all := map[string]metric{}
	for n, v := range out.metrics {
		all[n] = metric{Value: v, Unit: units[n], Exact: exact[n]}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "cprbench: %s: FAILED %s\n", name, p)
	}
	rec := map[string]any{
		"workload":    name,
		"why":         workloads[name].why,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"fingerprint": fingerprint(cfg),
		"attempted":   out.attempted,
		"failed":      out.failed,
		"problems":    out.problems,
		"error_rate":  float64(out.failed) / float64(max(out.attempted, 1)),
		"metrics":     all,
		"notes":       out.notes,
		"wall_s":      wall.Seconds(),
	}
	recLine, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, max(out.attempted, 1), out.failed, result})
	if err != nil {
		return err
	}
	printSummary(name, names, out)
	_, err = fmt.Fprintf(w, "%s\n%s\n", recLine, res)
	return err
}

// printSummary writes a human-readable metric table to standard error.
func printSummary(name string, names []string, out *outcome) {
	var b strings.Builder
	fmt.Fprintf(&b, "cprbench %s: attempted %d, failed %d\n", name, out.attempted, out.failed)
	keys := append([]string(nil), names...)
	sort.Strings(keys)
	for _, n := range keys {
		mark := ""
		if exact[n] {
			mark = " (exact)"
		}
		fmt.Fprintf(&b, "  %-30s %16.6f %s%s\n", n, out.metrics[n], units[n], mark)
	}
	fmt.Fprint(os.Stderr, b.String())
}
