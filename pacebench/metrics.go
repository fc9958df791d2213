package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports; BENCHMARK.json must
// declare exactly these (spec_test.go checks it).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd metrics are reported by every workload on an untraced run;
// README.md gives each metric's reading per workload. Times are process
// CPU time, which leaves out what the hypervisor steals: wall-clock
// figures on the shared host the benchmark was built on moved by 10x
// within an hour, and are reported per layer instead. Every workload
// rescales its CPU times to a reference host speed (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_cpu_s", "1/s", "higher", 0.25},
	{"op_cpu_ms", "ms", "lower", 0.25},
	{"full_search_frac", "fraction", "higher", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.25},
}

// serveStages are the placement service's pipeline stages, in request
// order, as its serve_stage_seconds histograms label them.
var serveStages = []string{"decode", "ratelimit", "idempotency", "queue", "search", "journal", "ack"}

// perLayer metrics are reported by every workload on a traced run. A
// layer that does not run on a workload reports zero work.
var perLayer = func() []metricDef {
	d := []metricDef{
		{name: "campaign.run_s", unit: "s", better: "lower"},
		{name: "trace.gen_s", unit: "s", better: "lower"},
		{name: "trace.requests", unit: "count", better: "higher"},
		{name: "trace.vms", unit: "count", better: "higher"},
		{name: "calib.kernel_ms", unit: "ms", better: "lower"},
		{name: "cloudsim.replay_cpu_p90_ms", unit: "ms", better: "lower"},
		{name: "cloudsim.run_s", unit: "s", better: "lower"},
		{name: "cloudsim.events_popped", unit: "count", better: "lower"},
		{name: "cloudsim.ns_per_event", unit: "ns", better: "lower"},
		{name: "cloudsim.place_attempts", unit: "count", better: "lower"},
		{name: "cloudsim.place_success_ratio", unit: "ratio", better: "higher"},
		{name: "cloudsim.fit_skips", unit: "count", better: "higher"},
		{name: "cloudsim.fleet_scans", unit: "count", better: "lower"},
		{name: "cloudsim.queue_depth_hw", unit: "count", better: "lower"},
		{name: "cloudsim.pricing_hit_ratio", unit: "ratio", better: "higher"},
		{name: "cloudsim.energy_mj", unit: "MJ", better: "lower"},
		{name: "cloudsim.makespan_s", unit: "s", better: "lower"},
		{name: "cloudsim.sla_violation_pct", unit: "%", better: "lower"},
		{name: "eventq.depth_hw", unit: "count", better: "lower"},
		{name: "eventq.cancelled", unit: "count", better: "lower"},
		{name: "strategy.place_calls", unit: "count", better: "lower"},
		{name: "strategy.place_s", unit: "s", better: "lower"},
		{name: "strategy.place_p50_us", unit: "us", better: "lower"},
		{name: "strategy.place_p99_us", unit: "us", better: "lower"},
		{name: "strategy.place_ok_ratio", unit: "ratio", better: "higher"},
		{name: "strategy.share_of_run", unit: "ratio", better: "lower"},
		{name: "core.partitions_enumerated", unit: "count", better: "lower"},
		{name: "core.partitions_deduped", unit: "count", better: "higher"},
		{name: "core.dedup_ratio", unit: "ratio", better: "higher"},
		{name: "core.candidates_feasible", unit: "count", better: "lower"},
		{name: "core.pareto_pruned", unit: "count", better: "higher"},
		{name: "core.degraded", unit: "count", better: "lower"},
		{name: "model.cache_hits", unit: "count", better: "higher"},
		{name: "model.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "model.cache_size", unit: "count", better: "lower"},
	}
	for _, st := range serveStages {
		d = append(d,
			metricDef{name: "serve." + st + ".busy_s", unit: "s", better: "lower"},
			metricDef{name: "serve." + st + ".p50_ms", unit: "ms", better: "lower"},
			metricDef{name: "serve." + st + ".p99_ms", unit: "ms", better: "lower"},
		)
	}
	return append(d,
		metricDef{name: "serve.latency_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "serve.latency_p90_ms", unit: "ms", better: "lower"},
		metricDef{name: "serve.latency_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "serve.placements", unit: "count", better: "higher"},
		metricDef{name: "serve.replays", unit: "count", better: "higher"},
		metricDef{name: "serve.releases", unit: "count", better: "higher"},
		metricDef{name: "serve.shed", unit: "count", better: "lower"},
		metricDef{name: "serve.rejects", unit: "count", better: "lower"},
		metricDef{name: "serve.ladder_steps", unit: "count", better: "lower"},
		metricDef{name: "serve.snapshots", unit: "count", better: "lower"},
		metricDef{name: "http.handler_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "http.handler_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "http.client_rtt_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "http.client_rtt_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "runtime.gc_cpu_frac", unit: "fraction", better: "lower"},
		metricDef{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metricDef{name: "runtime.alloc_bytes_per_req", unit: "B", better: "lower"},
		metricDef{name: "runtime.allocs_per_req", unit: "count", better: "lower"},
		metricDef{name: "runtime.gc_pause_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "loadgen.late_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "loadgen.sent", unit: "count", better: "higher"},
		metricDef{name: "trace_overhead_frac", unit: "fraction", better: "lower"},
	)
}()

// result is one run's outcome: the correctness verdict, the operation
// tallies, and the measured metric values by name.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Values    map[string]float64
}

func newResult() *result {
	return &result{Correct: true, Values: map[string]float64{}}
}

// fail records a correctness failure; the run exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	logf("FAIL: "+format, args...)
}

// line renders the result as the one-line JSON object the benchmark
// prints last, holding exactly the metrics in defs. A metric missing or
// not finite is a harness bug and fails the run.
func (r *result) line(defs []metricDef) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(defs))
	for _, d := range defs {
		v, ok := r.Values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s not measured (%v)", d.name, v)
			v = 0
		}
		ms[d.name] = val{v, d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // only plain numbers and strings are encoded
	}
	return string(out)
}

// logValues prints every measured value, sorted, to the log.
func (r *result) logValues() {
	names := make([]string, 0, len(r.Values))
	for n := range r.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("  %-34s %s", n, fmt.Sprintf("%.6g", r.Values[n]))
	}
}
