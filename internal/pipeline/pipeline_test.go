package pipeline

import (
	"context"
	"errors"
	"testing"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/explain"
	"anex/internal/summarize"
	"anex/internal/synth"
)

func testbed(t *testing.T, seed int64) (*dataset.Dataset, *dataset.GroundTruth) {
	t.Helper()
	ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "pipeline-test",
		TotalDims:           8,
		SubspaceDims:        []int{2, 2},
		N:                   180,
		OutliersPerSubspace: 3,
		Seed:                seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

func TestRunPointExplanationBeamLOF(t *testing.T) {
	ds, gt := testbed(t, 1)
	pp := PointPipeline{
		Detector:  "LOF",
		Explainer: &explain.Beam{Detector: detector.NewLOF(15), Width: 15, TopK: 10, FixedDim: true},
	}
	res := RunPointExplanation(context.Background(), ds, gt, pp, 2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Dataset != "pipeline-test" || res.Detector != "LOF" || res.Explainer != "Beam_FX" {
		t.Errorf("labels: %+v", res)
	}
	if res.PointsEvaluated != gt.NumOutliers() {
		t.Errorf("evaluated %d points, want %d", res.PointsEvaluated, gt.NumOutliers())
	}
	// Beam with LOF on easy planted 2d subspaces should be near-perfect.
	if res.MAP < 0.8 {
		t.Errorf("Beam+LOF MAP = %v, want high", res.MAP)
	}
	if res.MeanRecall < 0.8 {
		t.Errorf("Beam+LOF recall = %v", res.MeanRecall)
	}
	if res.Duration <= 0 {
		t.Error("duration not recorded")
	}
	if len(res.PerPoint) != res.PointsEvaluated {
		t.Error("per-point results missing")
	}
}

func TestRunPointExplanationNoPointsAtDim(t *testing.T) {
	ds, gt := testbed(t, 2)
	pp := PointPipeline{Detector: "LOF", Explainer: explain.NewBeamFX(detector.NewLOF(15))}
	res := RunPointExplanation(context.Background(), ds, gt, pp, 5) // nothing explained at 5d
	if res.PointsEvaluated != 0 || res.MAP != 0 || res.Err != nil {
		t.Errorf("expected empty result, got %+v", res)
	}
}

type failingExplainer struct{}

func (failingExplainer) Name() string { return "failing" }
func (failingExplainer) ExplainPoint(context.Context, *dataset.Dataset, int, int) ([]core.ScoredSubspace, error) {
	return nil, errStub
}

var errStub = errors.New("stub failure")

func TestRunPointExplanationPropagatesError(t *testing.T) {
	ds, gt := testbed(t, 3)
	pp := PointPipeline{Detector: "LOF", Explainer: failingExplainer{}}
	res := RunPointExplanation(context.Background(), ds, gt, pp, 2)
	if res.Err == nil || !errors.Is(res.Err, errStub) {
		t.Errorf("expected stub error, got %v", res.Err)
	}
	if res.MAP != 0 {
		t.Error("failed pipeline must report zero MAP")
	}
}

func TestRunSummarizationLookOutLOF(t *testing.T) {
	ds, gt := testbed(t, 4)
	sp := SummaryPipeline{
		Detector:   "LOF",
		Summarizer: &summarize.LookOut{Detector: detector.NewLOF(15), Budget: 10},
	}
	res := RunSummarization(context.Background(), ds, gt, sp, 2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.MAP <= 0 {
		t.Errorf("LookOut+LOF MAP = %v, want > 0", res.MAP)
	}
	if res.Explainer != "LookOut" {
		t.Errorf("label %q", res.Explainer)
	}
}

func TestRunSummarizationHiCS(t *testing.T) {
	ds, gt := testbed(t, 5)
	sp := SummaryPipeline{
		Detector: "LOF",
		Summarizer: &summarize.HiCS{
			Detector: detector.NewLOF(15), MCIterations: 40, Seed: 1, FixedDim: true, TopK: 10,
		},
	}
	res := RunSummarization(context.Background(), ds, gt, sp, 2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.MAP <= 0 {
		t.Errorf("HiCS+LOF MAP = %v", res.MAP)
	}
}

func TestNewDetectors(t *testing.T) {
	dets := NewDetectors(1, false)
	if len(dets) != 3 {
		t.Fatalf("%d detectors", len(dets))
	}
	names := map[string]bool{}
	for _, d := range dets {
		names[d.Name] = true
		if d.Detector.Name() == "" {
			t.Error("unnamed detector")
		}
	}
	for _, want := range []string{"LOF", "FastABOD", "iForest"} {
		if !names[want] {
			t.Errorf("missing detector %s", want)
		}
	}
	cached := NewDetectors(1, true)
	for _, d := range cached {
		if _, ok := d.Detector.(*detector.Cached); !ok {
			t.Errorf("detector %s not cached", d.Name)
		}
	}
}

func TestPipelineFactories(t *testing.T) {
	det := NewDetectors(1, false)[0]
	pps := PointPipelines(det, 1, Options{TopK: 10})
	if len(pps) != 2 {
		t.Fatalf("%d point pipelines", len(pps))
	}
	if pps[0].Explainer.Name() != "Beam_FX" || pps[1].Explainer.Name() != "RefOut" {
		t.Errorf("pipeline names: %s, %s", pps[0].Explainer.Name(), pps[1].Explainer.Name())
	}
	sps := SummaryPipelines(det, 1, Options{TopK: 10})
	if len(sps) != 2 {
		t.Fatalf("%d summary pipelines", len(sps))
	}
	if sps[0].Summarizer.Name() != "LookOut" || sps[1].Summarizer.Name() != "HiCS_FX" {
		t.Errorf("pipeline names: %s, %s", sps[0].Summarizer.Name(), sps[1].Summarizer.Name())
	}
	// The summarizers' candidate scoring gets the same worker budget as the
	// point explainers'.
	sps = SummaryPipelines(det, 1, Options{Workers: 3})
	if w := sps[0].Summarizer.(*summarize.LookOut).Workers; w != 3 {
		t.Errorf("LookOut.Workers = %d, want 3", w)
	}
	if w := sps[1].Summarizer.(*summarize.HiCS).Workers; w != 3 {
		t.Errorf("HiCS.Workers = %d, want 3", w)
	}
	// Ablation switches.
	abl := PointPipelines(det, 1, Options{RawScores: true, BeamVariableDim: true})
	if abl[0].Explainer.Name() != "Beam" {
		t.Errorf("variable-dim beam name %q", abl[0].Explainer.Name())
	}
}

func TestTwelvePipelinesOfFigure7(t *testing.T) {
	// The paper's Figure 7: 3 detectors × (2 point explainers + 2
	// summarizers) = 12 pipelines.
	count := 0
	for _, d := range NewDetectors(1, true) {
		count += len(PointPipelines(d, 1, Options{}))
		count += len(SummaryPipelines(d, 1, Options{}))
	}
	if count != 12 {
		t.Errorf("%d pipelines, want 12", count)
	}
}

func TestRunSummarizationPersonalizedRanking(t *testing.T) {
	// Full-space outliers, each explained by its own argmax subspace: in
	// the shared summary order only a few points can have their subspace
	// near the top, but with per-point ranking every retrieved subspace
	// can rank first for its own point — the paper's evaluation protocol.
	ds, outliers, err := synth.GenerateFullSpaceOutliers(synth.FullSpaceConfig{
		Name: "rank-test", N: 150, D: 8, NumOutliers: 15, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	lof := detector.NewCached(detector.NewLOF(15))
	gt, err := synth.DeriveTopSubspaceGroundTruth(context.Background(), ds, outliers, []int{2}, lof)
	if err != nil {
		t.Fatal(err)
	}
	lo := &summarize.LookOut{Detector: lof, Budget: 28} // all C(8,2) candidates
	plain := RunSummarization(context.Background(), ds, gt, SummaryPipeline{Detector: "LOF", Summarizer: lo}, 2)
	ranked := RunSummarization(context.Background(), ds, gt, SummaryPipeline{Detector: "LOF", Summarizer: lo, Ranker: lof}, 2)
	if plain.Err != nil || ranked.Err != nil {
		t.Fatal(plain.Err, ranked.Err)
	}
	if ranked.MAP <= plain.MAP {
		t.Errorf("personalized MAP %v not above shared-order MAP %v", ranked.MAP, plain.MAP)
	}
	// With the full candidate set selected and the same detector ranking,
	// every point's argmax subspace ranks first → MAP ≈ 1.
	if ranked.MAP < 0.95 {
		t.Errorf("personalized MAP = %v, want ≈ 1", ranked.MAP)
	}
	// Recall is order-independent and must coincide.
	if ranked.MeanRecall != plain.MeanRecall {
		t.Errorf("recall changed by re-ranking: %v vs %v", ranked.MeanRecall, plain.MeanRecall)
	}
}

func TestRunGridCoversAllCells(t *testing.T) {
	ds, gt := testbed(t, 30)
	results, gerr := RunGrid(context.Background(), GridSpec{
		Dataset:     ds,
		GroundTruth: gt,
		Dims:        []int{2},
		Seed:        1,
		Options:     Options{BeamWidth: 10, RefOutPoolSize: 30, RefOutWidth: 10, LookOutBudget: 10, HiCSCutoff: 30, HiCSIterations: 20, TopK: 10},
		Cached:      true,
	})
	if gerr != nil {
		t.Fatal(gerr)
	}
	// 3 detectors × 4 algorithms × 1 dim = 12 cells, Figure 7's grid.
	if len(results) != 12 {
		t.Fatalf("%d results, want 12", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s/%s: %v", r.Detector, r.Explainer, r.Err)
		}
	}
	// Deterministic order: first cell is LOF + Beam_FX.
	if results[0].Detector != "LOF" || results[0].Explainer != "Beam_FX" {
		t.Errorf("first cell %s/%s", results[0].Detector, results[0].Explainer)
	}
}

func TestRunGridWorkerCountInvariance(t *testing.T) {
	ds, gt := testbed(t, 31)
	opts := Options{BeamWidth: 8, RefOutPoolSize: 20, RefOutWidth: 8, LookOutBudget: 8, HiCSCutoff: 20, HiCSIterations: 15, TopK: 8}
	dets := []NamedDetector{
		{Name: "LOF", Detector: detector.NewCached(detector.NewLOF(15))},
		{Name: "iForest", Detector: detector.NewCached(&detector.IsolationForest{Trees: 20, Subsample: 64, Repetitions: 1, Seed: 1})},
	}
	run := func(workers int) []Result {
		res, err := RunGrid(context.Background(), GridSpec{
			Dataset: ds, GroundTruth: gt, Dims: []int{2}, Seed: 1,
			Options: opts, Detectors: dets, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	if len(seq) != 8 || len(par) != 8 {
		t.Fatalf("result counts: %d, %d (want 8 with 2 detectors)", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Detector != par[i].Detector || seq[i].Explainer != par[i].Explainer ||
			seq[i].MAP != par[i].MAP || seq[i].MeanRecall != par[i].MeanRecall {
			t.Errorf("cell %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}
