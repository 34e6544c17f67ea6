package summarize

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/subspace"
	"anex/internal/synth"
)

func testbed(t *testing.T, seed int64) (*dataset.Dataset, *dataset.GroundTruth) {
	t.Helper()
	ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "summarize-test",
		TotalDims:           8,
		SubspaceDims:        []int{2, 2},
		N:                   200,
		OutliersPerSubspace: 4,
		Seed:                seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

func TestLookOutFindsPlantedSubspaces(t *testing.T) {
	ds, gt := testbed(t, 1)
	lo := &LookOut{Detector: detector.NewLOF(15), Budget: 5}
	got, err := lo.Summarize(context.Background(), ds, gt.Outliers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("budget not honoured: %d", len(got))
	}
	// Both planted subspaces must appear in the selected summary: each
	// maximises the scores of its own outliers.
	found := 0
	for _, want := range gt.AllSubspaces() {
		for _, s := range got {
			if s.Subspace.Equal(want) {
				found++
				break
			}
		}
	}
	if found != 2 {
		t.Errorf("summary %v missed planted subspaces %v", got, gt.AllSubspaces())
	}
}

func TestLookOutGreedyOrder(t *testing.T) {
	ds, gt := testbed(t, 2)
	lo := &LookOut{Detector: detector.NewLOF(15), Budget: 10}
	got, err := lo.Summarize(context.Background(), ds, gt.Outliers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Marginal gains are non-increasing along the greedy selection.
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score+1e-9 {
			t.Fatalf("marginal gain increased at %d: %v after %v", i, got[i].Score, got[i-1].Score)
		}
	}
	// All scores non-negative (shifted objective).
	for _, s := range got {
		if s.Score < 0 {
			t.Errorf("negative marginal gain %v", s.Score)
		}
	}
}

func TestLookOutGreedyIsOptimalOnFirstPick(t *testing.T) {
	// The first selected subspace must be the one maximising the sum of
	// shifted scores — verify against a brute-force scan.
	ds, gt := testbed(t, 3)
	det := detector.NewLOF(15)
	points := gt.Outliers()
	lo := &LookOut{Detector: det, Budget: 1}
	got, err := lo.Summarize(context.Background(), ds, points, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: recompute sum per subspace (unshifted sums order the
	// same way because the shift is constant across candidates).
	bestSum := -1e18
	var bestSub subspace.Subspace
	enum := subspace.NewEnumerator(ds.D(), 2)
	for s := enum.Next(); s != nil; s = enum.Next() {
		scores, err := det.Scores(context.Background(), ds.View(s))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range points {
			sum += scores[p]
		}
		if sum > bestSum {
			bestSum = sum
			bestSub = s.Clone()
		}
	}
	if !got[0].Subspace.Equal(bestSub) {
		t.Errorf("first pick %v, brute-force best %v", got[0].Subspace, bestSub)
	}
}

func TestLookOutWithNegativeScores(t *testing.T) {
	// FastABOD emits negative scores; the objective shift must keep the
	// greedy selection well-defined.
	ds, gt := testbed(t, 4)
	lo := &LookOut{Detector: detector.NewFastABOD(10), Budget: 3}
	got, err := lo.Summarize(context.Background(), ds, gt.Outliers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d selected", len(got))
	}
	for _, s := range got {
		if s.Score < 0 {
			t.Errorf("negative gain %v after shifting", s.Score)
		}
	}
}

func TestLookOutErrors(t *testing.T) {
	ds, gt := testbed(t, 5)
	lo := NewLookOut(detector.NewLOF(15))
	if _, err := lo.Summarize(context.Background(), ds, nil, 2); err == nil {
		t.Error("no points should fail")
	}
	if _, err := lo.Summarize(context.Background(), ds, []int{-1}, 2); err == nil {
		t.Error("bad point should fail")
	}
	if _, err := lo.Summarize(context.Background(), ds, gt.Outliers(), 99); err == nil {
		t.Error("bad dim should fail")
	}
	noDet := &LookOut{}
	if _, err := noDet.Summarize(context.Background(), ds, gt.Outliers(), 2); err == nil {
		t.Error("nil detector should fail")
	}
}

func TestLookOutBudgetClamp(t *testing.T) {
	ds, gt := testbed(t, 6)
	lo := &LookOut{Detector: detector.NewLOF(15), Budget: 10_000}
	got, err := lo.Summarize(context.Background(), ds, gt.Outliers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := int(subspace.Count(ds.D(), 2))
	if len(got) != want {
		t.Errorf("selected %d, want all %d candidates", len(got), want)
	}
}

func TestHiCSContrastRanksPlantedPairsFirst(t *testing.T) {
	ds, gt := testbed(t, 7)
	h := &HiCS{Detector: detector.NewLOF(15), MCIterations: 60, Seed: 3, FixedDim: true}
	found, err := h.SearchContrastSubspaces(context.Background(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no subspaces found")
	}
	// The two planted correlated pairs must dominate the contrast ranking.
	topKeys := map[string]bool{}
	for _, s := range found[:min(4, len(found))] {
		topKeys[s.Subspace.Key()] = true
	}
	for _, want := range gt.AllSubspaces() {
		if !topKeys[want.Key()] {
			t.Errorf("planted %v not in top-4 contrast: %v", want, found[:min(4, len(found))])
		}
	}
}

func TestHiCSSummarizeFindsPlanted(t *testing.T) {
	ds, gt := testbed(t, 8)
	h := &HiCS{Detector: detector.NewLOF(15), MCIterations: 60, Seed: 5, FixedDim: true, TopK: 10}
	got, err := h.Summarize(context.Background(), ds, gt.Outliers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, want := range gt.AllSubspaces() {
		for _, s := range got[:min(4, len(got))] {
			if s.Subspace.Equal(want) {
				found++
				break
			}
		}
	}
	if found != 2 {
		t.Errorf("HiCS top-4 %v missed planted %v", got[:min(4, len(got))], gt.AllSubspaces())
	}
}

func TestHiCSFixedDimOutput(t *testing.T) {
	ds, gt := testbed(t, 9)
	h := NewHiCSFX(detector.NewLOF(15), 1)
	h.MCIterations = 30
	got, err := h.Summarize(context.Background(), ds, gt.Outliers(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s.Subspace.Dim() != 3 {
			t.Errorf("HiCS_FX returned %dd subspace %v", s.Subspace.Dim(), s.Subspace)
		}
	}
}

func TestHiCSVariableDimKeepsBestAcrossStages(t *testing.T) {
	ds, _ := testbed(t, 10)
	h := NewHiCS(detector.NewLOF(15), 2)
	h.MCIterations = 30
	found, err := h.SearchContrastSubspaces(context.Background(), ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	dims := map[int]bool{}
	for _, s := range found {
		dims[s.Subspace.Dim()] = true
	}
	if !dims[2] {
		t.Error("variable-dim HiCS lost its 2d subspaces")
	}
}

func TestHiCSDeterminism(t *testing.T) {
	ds, gt := testbed(t, 11)
	run := func() []core.ScoredSubspace {
		h := &HiCS{Detector: detector.NewLOF(15), MCIterations: 20, Seed: 7, FixedDim: true}
		got, err := h.Summarize(context.Background(), ds, gt.Outliers(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if !a[i].Subspace.Equal(b[i].Subspace) || a[i].Score != b[i].Score {
			t.Fatalf("results differ at %d", i)
		}
	}
}

func TestHiCSKSContrast(t *testing.T) {
	ds, gt := testbed(t, 12)
	h := &HiCS{Detector: detector.NewLOF(15), MCIterations: 60, Seed: 3, FixedDim: true, Test: KSTest}
	found, err := h.SearchContrastSubspaces(context.Background(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	topKeys := map[string]bool{}
	for _, s := range found[:min(4, len(found))] {
		topKeys[s.Subspace.Key()] = true
	}
	hits := 0
	for _, want := range gt.AllSubspaces() {
		if topKeys[want.Key()] {
			hits++
		}
	}
	if hits < 1 {
		t.Errorf("KS contrast found none of the planted subspaces in top-4")
	}
}

func TestHiCSErrors(t *testing.T) {
	ds, gt := testbed(t, 13)
	h := NewHiCS(detector.NewLOF(15), 1)
	if _, err := h.Summarize(context.Background(), ds, gt.Outliers(), 1); err == nil {
		t.Error("dim < 2 should fail")
	}
	noDet := &HiCS{}
	if _, err := noDet.Summarize(context.Background(), ds, gt.Outliers(), 2); err == nil {
		t.Error("nil detector should fail")
	}
}

// contrastOf estimates one subspace's contrast, drawing from est's RNG.
func contrastOf(t *testing.T, est *contrastEstimator, s subspace.Subspace) float64 {
	t.Helper()
	c, err := est.contrasts(context.Background(), []subspace.Subspace{s}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c[0]
}

func TestContrastNoiseVsPlanted(t *testing.T) {
	ds, gt := testbed(t, 14)
	rng := rand.New(rand.NewSource(1))
	est := newContrastEstimator(ds, 0.1, 80, WelchTest, rng)
	planted := gt.AllSubspaces()[0]
	noisePair := subspace.New(ds.D()-1, ds.D()-2)
	cPlanted := contrastOf(t, est, planted)
	cNoise := contrastOf(t, est, noisePair)
	if cPlanted <= cNoise {
		t.Errorf("planted contrast %v not above noise contrast %v", cPlanted, cNoise)
	}
	if cPlanted < 0.5 {
		t.Errorf("planted contrast %v unexpectedly low", cPlanted)
	}
	if deg := contrastOf(t, est, subspace.New(0)); deg != 0 {
		t.Errorf("1d contrast = %v, want 0", deg)
	}
}

func TestContrastTestString(t *testing.T) {
	if WelchTest.String() != "Welch" || KSTest.String() != "KS" {
		t.Error("ContrastTest String broken")
	}
}

func TestPruneDominated(t *testing.T) {
	a := core.ScoredSubspace{Subspace: subspace.New(0, 1), Score: 0.5}
	super := core.ScoredSubspace{Subspace: subspace.New(0, 1, 2), Score: 0.9}
	unrelated := core.ScoredSubspace{Subspace: subspace.New(3, 4), Score: 0.4}
	out := pruneDominated([]core.ScoredSubspace{a, super, unrelated})
	if len(out) != 2 {
		t.Fatalf("pruned to %v", out)
	}
	for _, s := range out {
		if s.Subspace.Equal(a.Subspace) {
			t.Error("dominated subspace survived")
		}
	}
	// A superset with LOWER contrast does not dominate.
	weakSuper := core.ScoredSubspace{Subspace: subspace.New(0, 1, 2), Score: 0.1}
	out = pruneDominated([]core.ScoredSubspace{a, weakSuper})
	if len(out) != 2 {
		t.Errorf("weak superset should not dominate: %v", out)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPropertyContrastBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(nRaw, dRaw uint8, seed int64) bool {
		n := int(nRaw%60) + 20
		d := int(dRaw%4) + 2
		cols := make([][]float64, d)
		for fi := range cols {
			cols[fi] = make([]float64, n)
			for i := range cols[fi] {
				cols[fi][i] = float64(rng.Intn(5)) / 4
			}
		}
		ds, err := dataset.New("prop", cols, nil)
		if err != nil {
			return false
		}
		est := newContrastEstimator(ds, 0.2, 20, WelchTest, rand.New(rand.NewSource(seed)))
		c := contrastOf(t, est, subspace.New(0, 1))
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySummariesHaveNoDuplicates(t *testing.T) {
	ds, gt := testbed(t, 41)
	det := detector.NewCached(detector.NewLOF(15))
	summarizers := []core.Summarizer{
		&LookOut{Detector: det, Budget: 15},
		&HiCS{Detector: det, MCIterations: 20, Seed: 1, FixedDim: true, TopK: 15},
		NewGroupSummarizer(det),
	}
	for _, s := range summarizers {
		list, err := s.Summarize(context.Background(), ds, gt.Outliers(), 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		seen := map[string]bool{}
		for _, e := range list {
			if seen[e.Subspace.Key()] {
				t.Errorf("%s returned duplicate %v", s.Name(), e.Subspace)
			}
			seen[e.Subspace.Key()] = true
			if e.Subspace.Dim() != 2 {
				t.Errorf("%s returned %dd subspace", s.Name(), e.Subspace.Dim())
			}
			if err := e.Subspace.Validate(ds.D()); err != nil {
				t.Errorf("%s: %v", s.Name(), err)
			}
		}
	}
}
