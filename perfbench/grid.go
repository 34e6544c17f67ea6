package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/parallel"
	"anex/internal/pipeline"
	"anex/internal/server"
	"anex/internal/synth"
)

// gridSpec selects the cells of a grid workload: Figure 9 (and with
// summaries Figure 10) cells of the named testbed datasets and detectors,
// wired the way experiments.Session wires them — one engine per round
// whose shared plane serves every kNN detector, and fresh score memos per
// dataset and figure.
type gridSpec struct {
	scale      synth.Scale
	datasets   []string // synthetic and real-world-like names
	detectors  []string
	summaries  bool
	dims       []int // explanation dimensionalities; nil = the scale's
	planeBytes int64 // shared plane budget; 0 = the default
}

// paper-grid: what a reproducer runs. Figure 9 + 10 on the small testbed's
// hics-12d and electricity-like, all three detectors; iForest does most
// of the CPU work. The workload for iForest changes.
var paperGrid = gridSpec{
	scale:     synth.ScaleSmall,
	datasets:  []string{"hics-12d", "electricity-like"},
	detectors: []string{"LOF", "FastABOD", "iForest"},
	summaries: true,
}

// knn-grid: Figure 9 at paper scale on hics-14d with the kNN detectors
// only. iForest does no work and the neighbourhood stack does most of it;
// the working set overflows the default plane budget, so it evicts.
var knnGrid = gridSpec{
	scale:     synth.ScalePaper,
	datasets:  []string{"hics-14d"},
	detectors: []string{"LOF", "FastABOD"},
}

func buildPaperGrid(ctx context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
	return buildGrid(ctx, paperGrid, seed, orc)
}

func buildKNNGrid(ctx context.Context, seed int64, orc *oracle) (workload, map[string]float64, error) {
	return buildGrid(ctx, knnGrid, seed, orc)
}

func guardPaperGrid(v map[string]float64) error {
	if v["detector.iforest.calls"] <= 0 {
		return guardf("paper-grid ran no iForest scoring")
	}
	return nil
}

func guardKNNGrid(v map[string]float64) error {
	if v["detector.iforest.calls"] != 0 {
		return guardf("knn-grid ran iForest scoring (%v calls)", v["detector.iforest.calls"])
	}
	if v["plane.evictions"] <= 0 {
		return guardf("knn-grid's working set fit the plane: no evictions")
	}
	return nil
}

type gridWorkload struct {
	spec gridSpec
	seed int64
	orc  *oracle
	tb   []synth.TestbedDataset
}

// buildGrid generates the testbed datasets with their ground truth, as
// experiments.NewSession does.
func buildGrid(ctx context.Context, spec gridSpec, seed int64, orc *oracle) (workload, map[string]float64, error) {
	g := &gridWorkload{spec: spec, seed: seed, orc: orc}
	vals := map[string]float64{}
	for _, c := range synth.SyntheticConfigs(spec.scale, seed) {
		if !slices.Contains(spec.datasets, c.Name) {
			continue
		}
		start := time.Now()
		td, err := synth.BuildSynthetic(c)
		if err != nil {
			return nil, nil, err
		}
		vals["synth.generate_s"] += time.Since(start).Seconds()
		g.tb = append(g.tb, td)
	}
	for _, c := range synth.RealWorldConfigs(spec.scale, seed) {
		if !slices.Contains(spec.datasets, c.Name) {
			continue
		}
		start := time.Now()
		ds, outliers, err := synth.GenerateFullSpaceOutliers(c)
		if err != nil {
			return nil, nil, err
		}
		vals["synth.generate_s"] += time.Since(start).Seconds()
		start = time.Now()
		gt, err := synth.DeriveTopSubspaceGroundTruth(ctx, ds, outliers, synth.GroundTruthDims(spec.scale), detector.NewLOF(detector.DefaultLOFK))
		if err != nil {
			return nil, nil, err
		}
		vals["synth.groundtruth_s"] += time.Since(start).Seconds()
		g.tb = append(g.tb, synth.TestbedDataset{Dataset: ds, GroundTruth: gt})
	}
	if len(g.tb) != len(spec.datasets) {
		return nil, nil, fmt.Errorf("grid: testbed has %d of the datasets %v", len(g.tb), spec.datasets)
	}
	return g, vals, nil
}

func (g *gridWorkload) close() {}

// options and detectors mirror experiments.Config's construction at the
// workload's scale.
func (g *gridWorkload) options() pipeline.Options {
	workers := parallel.Resolve(0)
	if g.spec.scale == synth.ScalePaper {
		return pipeline.Options{Workers: workers}
	}
	return pipeline.Options{
		BeamWidth: 30, RefOutPoolSize: 60, RefOutWidth: 30, LookOutBudget: 30,
		HiCSCutoff: 100, HiCSIterations: 40, TopK: 30, Workers: workers,
	}
}

func (g *gridWorkload) detectors() []pipeline.NamedDetector {
	var dets []pipeline.NamedDetector
	if g.spec.scale == synth.ScalePaper {
		dets = pipeline.NewDetectors(g.seed, false)
	} else {
		dets = []pipeline.NamedDetector{
			{Name: "LOF", Detector: detector.NewLOF(detector.DefaultLOFK)},
			{Name: "FastABOD", Detector: detector.NewFastABOD(detector.DefaultABODK)},
			{Name: "iForest", Detector: &detector.IsolationForest{Trees: 50, Subsample: 128, Repetitions: 3, Seed: g.seed}},
		}
	}
	out := dets[:0]
	for _, d := range dets {
		if slices.Contains(g.spec.detectors, d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// phase runs whole rounds of the grid (at least one) while another round
// is expected to end nearer the budget than stopping now would (see
// anotherRound). Each round is a fresh engine over the same testbed, so
// every round does the same work.
func (g *gridWorkload) phase(ctx context.Context, budget time.Duration, tr *tracer) (*phaseResult, error) {
	pr := &phaseResult{vals: map[string]float64{}}
	prune0 := neighbors.PruneTotals()
	gathers0 := g.gathers()
	start := time.Now()
	var memoCalls, memoHits float64
	for {
		roundStart := time.Now()
		calls, hits, err := g.round(ctx, tr, pr)
		if err != nil {
			return nil, err
		}
		memoCalls += calls
		memoHits += hits
		if !anotherRound(time.Since(start), time.Since(roundStart), budget) {
			break
		}
	}
	pr.elapsed = time.Since(start)
	pr.vals["detector.memo.calls"] = memoCalls
	pr.vals["detector.memo.hit_ratio"] = ratio(memoHits, memoCalls)
	pr.vals["plane.hit_ratio"] = ratio(pr.vals["plane.hits"], pr.vals["plane.queries"])
	delete(pr.vals, "plane.hits")
	pr.vals["dataset.gathers"] = float64(g.gathers() - gathers0)
	pruneVals(pr.vals, prune0)
	return pr, nil
}

func (g *gridWorkload) gathers() int64 {
	var n int64
	for _, td := range g.tb {
		n += td.Dataset.Gathers()
	}
	return n
}

// pruneVals adds the kNN tiers' activity since before (the tiers' ledger
// is process-wide, so each workload runs in its own process).
func pruneVals(vals map[string]float64, before neighbors.PruneStats) {
	after := neighbors.PruneTotals()
	d := neighbors.PruneStats{
		Candidates:      after.Candidates - before.Candidates,
		Scanned:         after.Scanned - before.Scanned,
		QuantCandidates: after.QuantCandidates - before.QuantCandidates,
		QuantRejected:   after.QuantRejected - before.QuantRejected,
	}
	vals["knn.prune.scan_fraction"] = d.ScanFraction()
	vals["knn.quant.survivor_fraction"] = d.SurvivorFraction()
}

// round runs every cell once on a fresh engine, recording each cell as
// one op, and returns the score memos' calls and hits.
func (g *gridWorkload) round(ctx context.Context, tr *tracer, pr *phaseResult) (memoCalls, memoHits float64, err error) {
	eng := server.NewEngine(server.EngineConfig{PlaneBytes: g.spec.planeBytes})
	opts := g.options()
	figures := []int{9}
	if g.spec.summaries {
		figures = append(figures, 10)
	}
	for _, fig := range figures {
		for _, td := range g.tb {
			dets := g.detectors()
			memos := make([]*detector.Cached, len(dets))
			for i := range dets {
				eng.WirePlane(dets[i].Detector)
				inner := dets[i].Detector
				if tr != nil {
					if inner, err = tr.wrapDetector(inner); err != nil {
						return 0, 0, err
					}
				}
				memos[i] = eng.NewScoreMemo(inner)
				dets[i].Detector = memos[i]
				if tr != nil {
					dets[i].Detector = tr.wrapMemo(memos[i])
				}
			}
			dims := g.spec.dims
			if dims == nil {
				dims = synth.ExplanationDims(g.spec.scale, td.Synthetic)
			}
			for _, dim := range dims {
				for _, d := range dets {
					var results []pipeline.Result
					var lats []time.Duration
					if fig == 9 {
						for _, pp := range pipeline.PointPipelines(d, g.seed, opts) {
							if tr != nil {
								pp.Explainer = tr.wrapExplainer(pp.Explainer)
							}
							start := time.Now()
							results = append(results, pipeline.RunPointExplanation(ctx, td.Dataset, td.GroundTruth, pp, dim))
							lats = append(lats, time.Since(start))
						}
					} else {
						for _, sp := range pipeline.SummaryPipelines(d, g.seed, opts) {
							if tr != nil {
								sp.Summarizer = tr.wrapSummarizer(sp.Summarizer)
							}
							start := time.Now()
							results = append(results, pipeline.RunSummarization(ctx, td.Dataset, td.GroundTruth, sp, dim))
							lats = append(lats, time.Since(start))
						}
					}
					if err := ctx.Err(); err != nil {
						return 0, 0, err
					}
					for i, res := range results {
						g.record(pr, fig, res, lats[i])
					}
				}
			}
			for i, m := range memos {
				cs := m.CacheStats()
				memoCalls += float64(cs.Calls)
				memoHits += float64(cs.Hits)
				pr.vals["detector.memo.evictions"] += float64(cs.Evictions)
				if dets[i].Name == "iForest" {
					pr.vals["detector.iforest.calls"] += float64(cs.Calls - cs.Hits)
				}
			}
		}
	}
	ps := eng.PlaneStats()
	pr.vals["plane.queries"] += float64(ps.Queries)
	pr.vals["plane.hits"] += float64(ps.Hits)
	pr.vals["plane.computations"] += float64(ps.Computations)
	pr.vals["plane.evictions"] += float64(ps.Evictions)
	pr.vals["plane.upgrades"] += float64(ps.Upgrades)
	pr.vals["plane.resident_mb"] = max(pr.vals["plane.resident_mb"], float64(ps.ResidentBytes)/(1<<20))
	pr.vals["plane.delta.queries"] += float64(ps.Delta.Queries)
	pr.vals["plane.delta.resident_mb"] = max(pr.vals["plane.delta.resident_mb"], float64(ps.Delta.ResidentBytes)/(1<<20))
	return memoCalls, memoHits, nil
}

// record checks one cell and counts it as an op: it fails on an error, a
// metric outside [0, 1], or MAP/MeanRecall bits that differ from the
// oracle's.
func (g *gridWorkload) record(pr *phaseResult, fig int, res pipeline.Result, lat time.Duration) {
	pr.attempted++
	pr.vals["pipeline.scoring_s"] += res.ScoringTime.Seconds()
	pr.vals["pipeline.search_s"] += res.SearchTime.Seconds()
	pr.vals["pipeline.eval_s"] += res.EvalTime.Seconds()
	key := fmt.Sprintf("fig%d|%s|%s|%s|%dd", fig, res.Dataset, res.Detector, res.Explainer, res.TargetDim)
	val := fmt.Sprintf("%016x/%016x/%d", math.Float64bits(res.MAP), math.Float64bits(res.MeanRecall), res.PointsEvaluated)
	switch {
	case res.Err != nil:
		fmt.Fprintf(os.Stderr, "cell %s failed: %v\n", key, res.Err)
	case !(res.MAP >= 0 && res.MAP <= 1 && res.MeanRecall >= 0 && res.MeanRecall <= 1):
		fmt.Fprintf(os.Stderr, "cell %s: MAP %v, MeanRecall %v out of [0, 1]\n", key, res.MAP, res.MeanRecall)
	case !g.orc.check(key, val):
	default:
		pr.lat = append(pr.lat, lat)
		return
	}
	pr.failed++
}
