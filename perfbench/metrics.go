package main

import (
	"math"
	"slices"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json (the tests compare
// them): an untraced run prints exactly endToEnd, a traced run exactly
// perLayer.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of anex sees on every workload, measured
// with tracing off. Every workload reports every one of them, and none
// reads 0 on a correct run, so fail_frac and the latencies that only some
// workloads have (op_p99_ms, the serve-mix classes) are in perLayer.
//
// The typical op latency is the geometric mean, not the median: a
// paper-grid run is two rounds of the same 60 cells, of one to thousands
// of milliseconds, and its median is one or two ~40 ms cells, whose
// run-to-run noise made it the benchmark's least steady number.
// op_p50_ms stays in perLayer.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_gmean_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the ledger's per-layer numbers, measured in the traced
// phase of a --trace 1 run (op_p50_ms, op_p99_ms and the serve latencies
// by request class come from its untraced phase, fail_frac from both). A
// layer a workload never reaches reports 0.
var perLayer = []metricSpec{
	{"synth.generate_s", "s"},
	{"synth.groundtruth_s", "s"},
	{"pipeline.scoring_s", "s"},
	{"pipeline.search_s", "s"},
	{"pipeline.eval_s", "s"},
	{"explain.beam.self_s", "s"},
	{"explain.refout.self_s", "s"},
	{"explain.calls", "count"},
	{"summarize.lookout.self_s", "s"},
	{"summarize.hics.self_s", "s"},
	{"detector.iforest.calls", "count"},
	{"detector.iforest.busy_s", "s"},
	{"detector.lof.busy_s", "s"},
	{"detector.fastabod.busy_s", "s"},
	{"detector.memo.calls", "count"},
	{"detector.memo.hit_ratio", "ratio"},
	{"detector.memo.evictions", "count"},
	{"detector.memo.wait_s", "s"},
	{"plane.queries", "count"},
	{"plane.computations", "count"},
	{"plane.hit_ratio", "ratio"},
	{"plane.evictions", "count"},
	{"plane.upgrades", "count"},
	{"plane.resident_mb", "MB"},
	{"plane.delta.queries", "count"},
	{"plane.delta.resident_mb", "MB"},
	{"knn.prune.scan_fraction", "ratio"},
	{"knn.quant.survivor_fraction", "ratio"},
	{"cpu.iforest_share", "ratio"},
	{"cpu.neighbors_share", "ratio"},
	{"cpu.stats_share", "ratio"},
	{"cpu.runtime_share", "ratio"},
	{"cpu.harness_share", "ratio"},
	{"dataset.gathers", "count"},
	{"server.explain.busy_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.admission.rejected", "count"},
	{"server.dedup_factor", "ratio"},
	{"durable.appends", "count"},
	{"durable.compactions", "count"},
	{"durable.wal_bytes", "bytes"},
	{"client.retries", "count"},
	{"stream.push_busy_s", "s"},
	{"stream.repair_fraction", "ratio"},
	{"stream.rescore_fraction", "ratio"},
	{"stream.publishes", "count"},
	{"gc.cpu_fraction", "ratio"},
	{"gc.cycles", "count"},
	{"alloc_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"explain_cold_p50_ms", "ms"},
	{"explain_cold_p90_ms", "ms"},
	{"explain_warm_p50_ms", "ms"},
	{"explain_warm_p99_ms", "ms"},
	{"register_p50_ms", "ms"},
	{"register_p90_ms", "ms"},
	{"fail_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns the metrics of specs, taking each value from vals (absent
// names report 0: the layer did not run on this workload).
func fill(specs []metricSpec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

// quantile returns the q-quantile of xs (not modified; empty input
// reports 0), interpolating linearly between the two nearest order
// statistics.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(n-1)
	i := int(pos)
	if i+1 >= n {
		return s[n-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// gmean returns the geometric mean of xs, which must be positive (empty
// input reports 0).
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
