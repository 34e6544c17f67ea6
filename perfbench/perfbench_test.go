package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anex/internal/synth"
)

// Tiny variants of the four workloads: the same code paths at a size a
// test can afford. The knn-grid variant gets a 64 KiB plane so that its
// working set still overflows it.
var (
	tinyPaperGrid = gridSpec{scale: synth.ScaleSmall, datasets: []string{"hics-8d"},
		detectors: []string{"LOF", "iForest"}, summaries: true, dims: []int{2}}
	tinyKNNGrid = gridSpec{scale: synth.ScaleSmall, datasets: []string{"hics-8d"},
		detectors: []string{"LOF", "FastABOD"}, dims: []int{2}, planeBytes: 64 << 10}
)

func tinySpec(name string) workloadSpec {
	spec := workloads[name]
	switch name {
	case "paper-grid":
		spec.build = func(ctx context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
			return buildGrid(ctx, tinyPaperGrid, seed, orc)
		}
	case "knn-grid":
		spec.build = func(ctx context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
			return buildGrid(ctx, tinyKNNGrid, seed, orc)
		}
	case "serve-mix":
		// A tiny phase can end before the wide tenant's first cold request,
		// the one that reaches the kNN tiers; TestGuards covers that guard.
		spec.guard = func(v map[string]float64) error {
			if v["durable.appends"] <= 0 {
				return guardf("serve-mix made no durable appends")
			}
			return nil
		}
	case "stream-window":
		spec.build = func(_ context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
			return newStreamWorkload(seed, orc, 8), nil, nil
		}
	}
	return spec
}

const tinyBudget = 300 * time.Millisecond

func newTestOracle(t *testing.T, dir, name string, record bool) *oracle {
	t.Helper()
	orc, err := loadOracle(dir, name, 7, record)
	if err != nil {
		t.Fatal(err)
	}
	return orc
}

// TestSmoke runs every workload at its tiny size, untraced and traced, and
// checks that each prints exactly its metric table, every value with its
// unit, with no failed op.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"paper-grid", "knn-grid", "serve-mix", "stream-window"} {
		for _, traced := range []bool{false, true} {
			orc := newTestOracle(t, t.TempDir(), name, false)
			res, err := run(context.Background(), tinySpec(name), 7, tinyBudget, traced, orc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, s.name)
				case m.Unit != s.unit:
					t.Errorf("%s traced=%v: metric %s in %q, want %q", name, traced, s.name, m.Unit, s.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, s.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, m.Value)
				}
			}
			if traced && res.Metrics["trace.coverage"].Value < 0.9 {
				t.Errorf("%s: trace.coverage %v", name, res.Metrics["trace.coverage"].Value)
			}
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the table %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(bench.Workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not the harness's", w.Name)
		}
	}
}

// tamper rewrites one recorded reference value, the first by key, and
// returns its key.
func tamper(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatalf("%s records no output", path)
	}
	var key string
	for k := range ref {
		if key == "" || k < key {
			key = k
		}
	}
	ref[key] = "tampered-" + ref[key]
	raw, err = json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestOracleCatchesTamperedReference records a run's outputs, tampers with
// one recorded value, and checks that the next run fails on it: a grid
// cell's MAP/MeanRecall bits and the stream's alert digest through the
// whole harness, and a response-body digest on one request.
func TestOracleCatchesTamperedReference(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"paper-grid", "stream-window"} {
		dir := t.TempDir()
		rec := newTestOracle(t, dir, name, true)
		if _, err := run(ctx, tinySpec(name), 7, time.Millisecond, false, rec); err != nil {
			t.Fatal(err)
		}
		if err := rec.save(); err != nil {
			t.Fatal(err)
		}
		clean, err := run(ctx, tinySpec(name), 7, time.Millisecond, false, newTestOracle(t, dir, name, false))
		if err != nil || !clean.Correct {
			t.Fatalf("%s: run against its own reference: %v, %+v", name, err, clean)
		}
		key := tamper(t, rec.path)
		res, err := run(ctx, tinySpec(name), 7, time.Millisecond, false, newTestOracle(t, dir, name, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: tampered reference %q passed: %+v", name, key, res)
		}
	}

	dir := t.TempDir()
	op := serveOp{tenant: 0, algo: "beam", det: "lof", dim: 2}
	explain := func(orc *oracle) *phaseResult {
		w, _, err := buildServeMix(ctx, 7, orc)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		pr := &phaseResult{classes: map[string][]time.Duration{}}
		w.(*serveWorkload).do(ctx, op, pr, new(atomic.Int64))
		return pr
	}
	rec := newTestOracle(t, dir, "serve-mix", true)
	if pr := explain(rec); pr.failed != 0 {
		t.Fatalf("serve-mix: recording run failed %d ops", pr.failed)
	}
	if err := rec.save(); err != nil {
		t.Fatal(err)
	}
	tamper(t, rec.path)
	orc := newTestOracle(t, dir, "serve-mix", false)
	if pr := explain(orc); pr.failed != 1 || orc.mismatches() != 1 {
		t.Errorf("serve-mix: tampered response digest passed: failed %d, mismatches %d", pr.failed, orc.mismatches())
	}
}

// TestOracleSelfConsistency checks that a key's output must repeat within
// a run even with no recorded reference.
func TestOracleSelfConsistency(t *testing.T) {
	orc := newTestOracle(t, t.TempDir(), "knn-grid", false)
	if !orc.check("k", "a") || !orc.check("k", "a") {
		t.Fatal("a repeated output failed")
	}
	if orc.check("k", "b") || orc.mismatches() != 1 {
		t.Fatalf("a changed output passed (mismatches %d)", orc.mismatches())
	}
}

// TestGuards checks each engagement guard on counters that satisfy it and
// on counters that show its layer bypassed.
func TestGuards(t *testing.T) {
	cases := []struct {
		name     string
		pass     map[string]float64
		bypassed []map[string]float64
	}{
		{"paper-grid", map[string]float64{"detector.iforest.calls": 3},
			[]map[string]float64{{}}},
		{"knn-grid", map[string]float64{"plane.evictions": 5},
			[]map[string]float64{{"plane.evictions": 5, "detector.iforest.calls": 1}, {}}},
		{"serve-mix", map[string]float64{"knn.prune.scan_fraction": 0.1, "durable.appends": 2},
			[]map[string]float64{{"knn.prune.scan_fraction": 1, "durable.appends": 2}, {"knn.prune.scan_fraction": 0.1}}},
		{"stream-window", map[string]float64{"stream.publishes": 4, "knn.quant.survivor_fraction": 0.3},
			[]map[string]float64{{"knn.quant.survivor_fraction": 0.3}, {"stream.publishes": 4, "knn.quant.survivor_fraction": 1}}},
	}
	for _, c := range cases {
		guard := workloads[c.name].guard
		if err := guard(c.pass); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		for _, v := range c.bypassed {
			if err := guard(v); !errors.Is(err, errGuard) {
				t.Errorf("%s: guard passed %v (err %v)", c.name, v, err)
			}
		}
	}
}

// TestRunFailsWhenLayerBypassed checks that a run whose layer did not
// engage fails instead of printing a result: the tiny knn-grid on the
// default plane budget never evicts.
func TestRunFailsWhenLayerBypassed(t *testing.T) {
	spec := workloads["knn-grid"]
	roomy := tinyKNNGrid
	roomy.planeBytes = 0
	spec.build = func(ctx context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
		return buildGrid(ctx, roomy, seed, orc)
	}
	_, err := run(context.Background(), spec, 7, time.Millisecond, false, newTestOracle(t, t.TempDir(), "knn-grid", false))
	if !errors.Is(err, errGuard) {
		t.Fatalf("run with a bypassed plane: err %v, want an engagement guard failure", err)
	}
}

// TestCompare checks that compare prints both sides and names every
// ratio's base.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		var buf bytes.Buffer
		for _, traced := range []bool{false, true} {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			vals := map[string]float64{}
			for _, s := range specs {
				vals[s.name] = scale
			}
			prov := map[string]any{"workload": "stream-window", "trace": traced}
			if err := printResult(&buf, prov, &result{Correct: true, Attempted: 1, Metrics: fill(specs, vals)}); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compare(&out, []string{write("parent.out", 2), write("change.out", 1)}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"== stream-window", "ratio base = parent median", "ops_per_s", "trace.coverage", "0.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("compare output lacks %q:\n%s", want, s)
		}
	}
}

// TestQuantile checks the quantile estimate on cases with known answers.
func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{5, 5, 5, 5}, 0.9, 5},
		{[]float64{7}, 0.99, 7},
		{[]float64{0, 10}, 1, 10},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

// TestAnotherRound checks that a phase stops at the round boundary
// nearest its budget.
func TestAnotherRound(t *testing.T) {
	s := time.Second
	cases := []struct {
		elapsed, last time.Duration
		want          bool
	}{
		{16 * s, 16 * s, true},  // 32 s is 2 s past 30, 16 s is 14 short
		{22 * s, 22 * s, false}, // 44 s is 14 past, 22 s is 8 short
		{10 * s, 10 * s, true},  // 20 s still fits
		{32 * s, 16 * s, false}, // already past the budget
		{25 * s, 10 * s, false}, // exactly as near either way: stop
	}
	for _, c := range cases {
		if got := anotherRound(c.elapsed, c.last, 30*s); got != c.want {
			t.Errorf("anotherRound(%v, %v, 30s) = %v, want %v", c.elapsed, c.last, got, c.want)
		}
	}
}

// TestGmean checks the geometric mean on cases with known answers.
func TestGmean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{2, 8}, 4},
		{[]float64{1, 10, 100}, 10},
		{[]float64{5, 5, 5}, 5},
		{[]float64{0.5}, 0.5},
		{nil, 0},
	}
	for _, c := range cases {
		if got := gmean(c.xs); math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("gmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestAttributeCPU checks that trace.coverage counts only the CPU the
// ledger names a layer for: a sample in the harness's own code and a
// runtime-only sample lower it, even on a labelled goroutine.
func TestAttributeCPU(t *testing.T) {
	client := map[string]string{labelLayer: "client"}
	samples := []cpuSample{
		{nanos: 40, stack: []string{"anex/internal/neighbors.(*Plane).Query", "main.(*tracedDetector).Scores", "main.main"}},
		{nanos: 20, stack: []string{"net/http.(*persistConn).readLoop", "runtime.goexit"}, labels: client},
		{nanos: 30, stack: []string{"crypto/sha256.block", "main.digest", "main.(*serveWorkload).do"}, labels: client},
		{nanos: 10, stack: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
	}
	vals := map[string]float64{}
	attributeCPU(samples, vals)
	for name, want := range map[string]float64{
		"trace.coverage":      0.6,
		"cpu.neighbors_share": 0.4,
		"cpu.harness_share":   0.3,
		"cpu.runtime_share":   0.1,
	} {
		if math.Abs(vals[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, vals[name], want)
		}
	}
}
