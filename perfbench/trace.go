package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
)

// tracer is the traced phase's instrument: timing spans at the wrappers
// the harness hands to each layer, pprof labels set at those wrappers, a
// CPU profile attributed by those labels and by the innermost
// anex/internal/<pkg> frame, and runtime counters.
type tracer struct {
	prof   bytes.Buffer
	before []metrics.Sample

	mu    sync.Mutex
	spans map[string]*span
}

// span accumulates the calls and the summed wall time of one wrapper
// kind (summed across goroutines, so it can exceed the phase's wall time).
type span struct {
	nanos, calls atomic.Int64
}

func (s *span) add(start time.Time) {
	s.nanos.Add(int64(time.Since(start)))
	s.calls.Add(1)
}

var runtimeCounters = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func newTracer() *tracer { return &tracer{spans: map[string]*span{}} }

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func runtimeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func (t *tracer) start() error {
	t.before = readRuntime()
	return pprof.StartCPUProfile(&t.prof)
}

// span returns the named span, creating it on first use.
func (t *tracer) span(name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[name]
	if s == nil {
		s = &span{}
		t.spans[name] = s
	}
	return s
}

// spanSeconds and spanCalls read a span (0 for one never created).
func (t *tracer) spanSeconds(name string) float64 {
	return float64(t.span(name).nanos.Load()) / 1e9
}

func (t *tracer) spanCalls(name string) float64 { return float64(t.span(name).calls.Load()) }

// stop ends the profile and returns the tracer's part of the ledger.
func (t *tracer) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	after := readRuntime()
	d := make([]float64, len(after))
	for i := range after {
		d[i] = runtimeValue(after[i]) - runtimeValue(t.before[i])
	}
	vals := map[string]float64{
		"gc.cpu_fraction":          ratio(d[0], d[1]),
		"gc.cycles":                d[2],
		"alloc_mb":                 d[3] / (1 << 20),
		"detector.iforest.busy_s":  t.spanSeconds("detector.iForest"),
		"detector.lof.busy_s":      t.spanSeconds("detector.LOF"),
		"detector.fastabod.busy_s": t.spanSeconds("detector.FastABOD"),
		"detector.memo.wait_s":     t.spanSeconds("memo"),
		"explain.calls":            t.spanCalls("explain"),
		"stream.push_busy_s":       t.spanSeconds("stream.push"),
	}
	samples, err := parseCPUProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	attributeCPU(samples, vals)
	return vals, nil
}

// Label values. layer names the wrapper a goroutine is inside; explainer
// and detector name the algorithms (display names, as in pipeline results).
const (
	labelLayer     = "layer"
	labelExplainer = "explainer"
	labelDetector  = "detector"
)

// attributeCPU adds the profile's shares and self times to vals. A sample
// belongs to the package of its innermost anex frame (anex/internal/<pkg>,
// or the harness's own main package); a sample with no anex frame is the
// Go runtime's when every frame is the runtime's (garbage collection,
// scheduling). trace.coverage is the share the ledger names a layer for:
// samples in an anex/internal package, and samples with no anex frame
// that run under a layer label (standard-library code a layer called,
// such as HTTP transport). The harness's own code and runtime-only samples
// are left out; they are cpu.harness_share and cpu.runtime_share.
func attributeCPU(samples []cpuSample, vals map[string]float64) {
	var total, covered, iforest, neighbors, stats, runtimeOnly, harness float64
	self := map[string]float64{}
	for _, s := range samples {
		ns := float64(s.nanos)
		total += ns
		pkg := innermostAnexPackage(s.stack)
		switch {
		case pkg == "main":
			harness += ns
		case pkg != "":
			covered += ns
		case allRuntime(s.stack):
			runtimeOnly += ns
		case s.labels[labelLayer] != "":
			covered += ns
		}
		switch pkg {
		case "neighbors":
			neighbors += ns
		case "stats":
			stats += ns
		case "explain", "summarize":
			self[s.labels[labelExplainer]] += ns
		}
		if s.labels[labelLayer] == "detector" && s.labels[labelDetector] == "iForest" {
			iforest += ns
		}
	}
	vals["trace.coverage"] = ratio(covered, total)
	vals["cpu.iforest_share"] = ratio(iforest, total)
	vals["cpu.neighbors_share"] = ratio(neighbors, total)
	vals["cpu.stats_share"] = ratio(stats, total)
	vals["cpu.runtime_share"] = ratio(runtimeOnly, total)
	vals["cpu.harness_share"] = ratio(harness, total)
	vals["explain.beam.self_s"] = self["Beam_FX"] / 1e9
	vals["explain.refout.self_s"] = self["RefOut"] / 1e9
	vals["summarize.lookout.self_s"] = self["LookOut"] / 1e9
	vals["summarize.hics.self_s"] = self["HiCS_FX"] / 1e9
}

// innermostAnexPackage returns the package of the leaf-most frame that is
// anex code: "main" for the harness, the <pkg> of anex/internal/<pkg>, or
// "" when the stack holds no anex frame.
func innermostAnexPackage(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "main"
		}
		if rest, ok := strings.CutPrefix(fn, "anex/internal/"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return ""
}

func allRuntime(stack []string) bool {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") && !strings.HasPrefix(fn, "runtime/internal/") {
			return false
		}
	}
	return len(stack) > 0
}

// do runs f under the labels, merged into ctx's.
func do(ctx context.Context, f func(context.Context), kv ...string) {
	pprof.Do(ctx, pprof.Labels(kv...), f)
}

// The detector wrappers time Scores and, for raw detectors, label it. A
// wrapper implements exactly the optional interfaces its inner detector
// implements (core.StatScorer plus Forget on a score memo,
// detector.WindowScorer on a kNN detector), so the code paths that probe
// for them run unchanged under tracing.

type tracedDetector struct {
	inner  core.Detector
	sp     *span
	labels []string // nil: time only
}

func (d *tracedDetector) Name() string { return d.inner.Name() }

func (d *tracedDetector) Scores(ctx context.Context, v *dataset.View) (s []float64, err error) {
	defer d.sp.add(time.Now())
	if d.labels == nil {
		return d.inner.Scores(ctx, v)
	}
	do(ctx, func(ctx context.Context) { s, err = d.inner.Scores(ctx, v) }, d.labels...)
	return s, err
}

type forgetter interface{ Forget(datasetName string) }

type tracedMemo struct {
	*tracedDetector
	ss core.StatScorer
	f  forgetter
}

func (d *tracedMemo) ScoresWithStats(ctx context.Context, v *dataset.View) ([]float64, float64, float64, error) {
	defer d.sp.add(time.Now())
	return d.ss.ScoresWithStats(ctx, v)
}

func (d *tracedMemo) Forget(name string) { d.f.Forget(name) }

type tracedWindowDetector struct {
	*tracedDetector
	ws detector.WindowScorer
}

func (d *tracedWindowDetector) WindowK() int { return d.ws.WindowK() }

func (d *tracedWindowDetector) ScoresWindow(points [][]float64, idx []int32, dist []float64, m, stride int, dirty []bool, memo *detector.WindowMemo) ([]float64, int) {
	defer d.sp.add(time.Now())
	return d.ws.ScoresWindow(points, idx, dist, m, stride, dirty, memo)
}

// wrapDetector wraps a raw detector: timed per detector name and labelled
// layer=detector. It errors on an optional-interface combination it
// cannot forward, rather than silently change the traced code path.
func (t *tracer) wrapDetector(d core.Detector) (core.Detector, error) {
	base := &tracedDetector{inner: d, sp: t.span("detector." + d.Name()),
		labels: []string{labelLayer, "detector", labelDetector, d.Name()}}
	_, stat := d.(core.StatScorer)
	_, forget := d.(forgetter)
	ws, window := d.(detector.WindowScorer)
	switch {
	case stat || forget:
		return nil, fmt.Errorf("trace: raw detector %s is a score memo", d.Name())
	case window:
		return &tracedWindowDetector{tracedDetector: base, ws: ws}, nil
	}
	return base, nil
}

// wrapMemo wraps a score memo (outside it): timed as the memo wait.
func (t *tracer) wrapMemo(m *detector.Cached) core.Detector {
	return &tracedMemo{tracedDetector: &tracedDetector{inner: m, sp: t.span("memo")}, ss: m, f: m}
}

type tracedExplainer struct {
	inner core.PointExplainer
	sp    *span
}

func (e *tracedExplainer) Name() string { return e.inner.Name() }

func (e *tracedExplainer) ExplainPoint(ctx context.Context, ds *dataset.Dataset, p, dim int) (out []core.ScoredSubspace, err error) {
	defer e.sp.add(time.Now())
	do(ctx, func(ctx context.Context) { out, err = e.inner.ExplainPoint(ctx, ds, p, dim) },
		labelLayer, "explain", labelExplainer, e.inner.Name())
	return out, err
}

type tracedSummarizer struct {
	inner core.Summarizer
	sp    *span
}

func (s *tracedSummarizer) Name() string { return s.inner.Name() }

func (s *tracedSummarizer) Summarize(ctx context.Context, ds *dataset.Dataset, points []int, dim int) (out []core.ScoredSubspace, err error) {
	defer s.sp.add(time.Now())
	do(ctx, func(ctx context.Context) { out, err = s.inner.Summarize(ctx, ds, points, dim) },
		labelLayer, "summarize", labelExplainer, s.inner.Name())
	return out, err
}

func (t *tracer) wrapExplainer(e core.PointExplainer) core.PointExplainer {
	return &tracedExplainer{inner: e, sp: t.span("explain")}
}

func (t *tracer) wrapSummarizer(s core.Summarizer) core.Summarizer {
	return &tracedSummarizer{inner: s, sp: t.span("summarize")}
}
