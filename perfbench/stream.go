package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"strings"
	"time"

	"anex/internal/core"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/parallel"
	"anex/internal/stream"
)

// stream-window: stream.Monitor on the reference stream shape (W=256,
// stride=64, 20 features, LOF k=15) fed point by point, one op per
// evaluating stride. It is the only workload for internal/stream, the
// incremental WindowEngine/WindowScorer path and the quantized tier's
// arrival scans. A pass pushes the whole generated stream through a fresh
// monitor and plane; a phase runs whole passes as anotherRound decides.
const (
	streamWindow  = 256
	streamStride  = 64
	streamDim     = 20
	streamStrides = 400 // evaluating strides per pass after the first window
)

type streamWorkload struct {
	orc    *oracle
	points [][]float64
}

func guardStreamWindow(v map[string]float64) error {
	if v["stream.publishes"] <= 0 {
		return guardf("stream-window published no maintained neighbourhoods")
	}
	if v["knn.quant.survivor_fraction"] >= 1 {
		return guardf("stream-window never reached the quantized tier (survivor fraction %v)", v["knn.quant.survivor_fraction"])
	}
	return nil
}

func buildStreamWindow(_ context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
	return newStreamWorkload(seed, orc, streamStrides), nil, nil
}

// newStreamWorkload generates the seeded Gaussian stream of one pass.
func newStreamWorkload(seed int64, orc *oracle, strides int) *streamWorkload {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, streamWindow+strides*streamStride)
	for i := range pts {
		p := make([]float64, streamDim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return &streamWorkload{orc: orc, points: pts}
}

func (w *streamWorkload) close() {}

func (w *streamWorkload) phase(ctx context.Context, budget time.Duration, tr *tracer) (*phaseResult, error) {
	pr := &phaseResult{vals: map[string]float64{}}
	prune0 := neighbors.PruneTotals()
	var st stream.StreamStats
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		ps, err := w.pass(ctx, tr, pr, pass)
		if err != nil {
			return nil, err
		}
		st.SurvivorLists += ps.SurvivorLists
		st.KListRepairs += ps.KListRepairs
		st.Scored += ps.Scored
		st.Rescored += ps.Rescored
		st.Publishes += ps.Publishes
		if !anotherRound(time.Since(start), time.Since(passStart), budget) {
			break
		}
	}
	pr.elapsed = time.Since(start)
	pr.vals["stream.repair_fraction"] = st.RepairFraction()
	pr.vals["stream.rescore_fraction"] = st.DirtyRescoreFraction()
	pr.vals["stream.publishes"] = float64(st.Publishes)
	pruneVals(pr.vals, prune0)
	return pr, nil
}

// pass pushes the stream through a fresh monitor, recording one op per
// evaluating stride (the pushes since the previous evaluation), and checks
// the pass's alert-stream digest.
func (w *streamWorkload) pass(ctx context.Context, tr *tracer, pr *phaseResult, pass int) (stream.StreamStats, error) {
	workers := parallel.Resolve(0)
	plane := neighbors.NewPlane(0)
	lof := &detector.LOF{K: 15, Workers: workers}
	lof.SetNeighbors(plane)
	var det core.Detector = lof
	pushCtx := ctx
	var pushSpan *span
	if tr != nil {
		var err error
		if det, err = tr.wrapDetector(lof); err != nil {
			return stream.StreamStats{}, err
		}
		pushSpan = tr.span("stream.push")
		pushCtx = pprof.WithLabels(ctx, pprof.Labels(labelLayer, "stream"))
		pprof.SetGoroutineLabels(pushCtx)
		defer pprof.SetGoroutineLabels(ctx)
	}
	m, err := stream.NewMonitor(stream.Config{
		WindowSize: streamWindow,
		Stride:     streamStride,
		ZThreshold: stream.Threshold(3),
		Detector:   det,
		Plane:      plane,
		Workers:    workers,
	})
	if err != nil {
		return stream.StreamStats{}, err
	}
	defer m.Close()
	var alerts strings.Builder
	var stride time.Duration
	evals := 0
	for _, p := range w.points {
		t0 := time.Now()
		as, err := m.Push(pushCtx, p)
		d := time.Since(t0)
		if pushSpan != nil {
			pushSpan.add(t0)
		}
		stride += d
		if err != nil {
			return stream.StreamStats{}, fmt.Errorf("pass %d: %w", pass, err)
		}
		for _, a := range as {
			fmt.Fprintf(&alerts, "%d:%x:%x;", a.Sequence, math.Float64bits(a.Score), math.Float64bits(a.ZScore))
		}
		if e := m.Evaluations(); e != evals {
			evals = e
			pr.attempted++
			pr.lat = append(pr.lat, stride)
			stride = 0
		}
	}
	if err := ctx.Err(); err != nil {
		return stream.StreamStats{}, err
	}
	if evals == 0 || !w.orc.check("alerts", fmt.Sprintf("%d/%s", evals, digest([]byte(alerts.String())))) {
		// A wrong alert stream fails every stride of the pass.
		pr.failed += evals
		pr.lat = pr.lat[:len(pr.lat)-evals]
	}
	return m.Stats(), nil
}
