package summarize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/stats"
	"anex/internal/subspace"
)

// refEstimator is the serial Monte-Carlo contrast estimator the parallel
// plan/evaluate split must reproduce bit for bit: one RNG threaded through
// the candidates in order, each contrast drawing its numbers as it goes.
type refEstimator struct {
	ds      *dataset.Dataset
	sortIdx [][]int
	alpha   float64
	mc      int
	test    ContrastTest
	rng     *rand.Rand
	mask    []int
}

func newRefEstimator(ds *dataset.Dataset, alpha float64, mc int, test ContrastTest, seed int64) *refEstimator {
	e := &refEstimator{ds: ds, alpha: alpha, mc: mc, test: test, rng: rand.New(rand.NewSource(seed)), mask: make([]int, ds.N())}
	e.sortIdx = make([][]int, ds.D())
	for f := 0; f < ds.D(); f++ {
		idx := make([]int, ds.N())
		for i := range idx {
			idx[i] = i
		}
		col := ds.Column(f)
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		e.sortIdx[f] = idx
	}
	return e
}

func (e *refEstimator) contrast(s subspace.Subspace) float64 {
	m := s.Dim()
	if m < 2 {
		return 0
	}
	n := e.ds.N()
	sliceFrac := math.Pow(e.alpha, 1/float64(m-1))
	sliceSize := int(math.Ceil(sliceFrac * float64(n)))
	if sliceSize < 1 {
		sliceSize = 1
	}
	if sliceSize > n {
		sliceSize = n
	}
	var sum float64
	valid := 0
	cond := make([]float64, 0, sliceSize)
	for iter := 0; iter < e.mc; iter++ {
		testDim := s[e.rng.Intn(m)]
		needed := 0
		for _, f := range s {
			if f == testDim {
				continue
			}
			needed++
			idx := e.sortIdx[f]
			start := e.rng.Intn(n - sliceSize + 1)
			for _, p := range idx[start : start+sliceSize] {
				e.mask[p]++
			}
		}
		cond = cond[:0]
		col := e.ds.Column(testDim)
		for p := 0; p < n; p++ {
			if e.mask[p] == needed {
				cond = append(cond, col[p])
			}
			e.mask[p] = 0
		}
		if len(cond) < minConditionalSample {
			continue
		}
		var p float64
		switch e.test {
		case KSTest:
			p = stats.KolmogorovSmirnov(cond, col).P
		default:
			p = stats.WelchTTest(cond, col).P
		}
		sum += 1 - p
		valid++
	}
	if valid == 0 {
		return 0
	}
	return sum / float64(valid)
}

// refSearch is the serial stage-wise contrast search. Besides the result it
// returns every stage's candidates and their contrasts, in evaluation order.
func refSearch(h *HiCS, ds *dataset.Dataset, maxDim int) (result []core.ScoredSubspace, stages [][]core.ScoredSubspace) {
	est := newRefEstimator(ds, h.alpha(), h.mcIterations(), h.Test, h.Seed)
	cutoff := h.cutoff()
	var stage []core.ScoredSubspace
	enum := subspace.NewEnumerator(ds.D(), 2)
	for s := enum.Next(); s != nil; s = enum.Next() {
		sub := s.Clone()
		stage = append(stage, core.ScoredSubspace{Subspace: sub, Score: est.contrast(sub)})
	}
	stages = append(stages, append([]core.ScoredSubspace(nil), stage...))
	core.SortByScore(stage)
	stage = core.TopK(stage, cutoff)
	global := append([]core.ScoredSubspace(nil), stage...)
	for dim := 3; dim <= maxDim; dim++ {
		seen := make(map[string]bool)
		var next []core.ScoredSubspace
		for _, cur := range stage {
			for f := 0; f < ds.D(); f++ {
				if cur.Subspace.Contains(f) {
					continue
				}
				cand := cur.Subspace.With(f)
				if seen[cand.Key()] {
					continue
				}
				seen[cand.Key()] = true
				next = append(next, core.ScoredSubspace{Subspace: cand, Score: est.contrast(cand)})
			}
		}
		stages = append(stages, append([]core.ScoredSubspace(nil), next...))
		core.SortByScore(next)
		stage = core.TopK(next, cutoff)
		if h.FixedDim {
			continue
		}
		global = pruneDominated(append(global, stage...))
		core.SortByScore(global)
		global = core.TopK(global, cutoff)
	}
	if h.FixedDim {
		return stage, stages
	}
	return global, stages
}

// sameList reports the first difference between two ranked lists, scores
// compared bit for bit.
func sameList(a, b []core.ScoredSubspace) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Subspace.Equal(b[i].Subspace) || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return fmt.Errorf("entry %d: %v %v vs %v %v", i, a[i].Subspace, a[i].Score, b[i].Subspace, b[i].Score)
		}
	}
	return nil
}

func TestContrastMatchesSerialReference(t *testing.T) {
	planted, _ := testbed(t, 21)
	datasets := []*dataset.Dataset{
		planted,
		// Heavy ties and n=40: many iterations fall below the minimum
		// conditional sample and are skipped.
		unitDataset(t, 40, 6),
	}
	ctx := context.Background()
	for di, ds := range datasets {
		for _, test := range []ContrastTest{WelchTest, KSTest} {
			for _, fixed := range []bool{true, false} {
				for maxDim := 2; maxDim <= 4; maxDim++ {
					h := &HiCS{MCIterations: 15, CandidateCutoff: 8, Test: test, FixedDim: fixed, Seed: int64(maxDim)}
					want, stages := refSearch(h, ds, maxDim)
					for _, workers := range []int{1, 2, 4} {
						name := fmt.Sprintf("ds%d/%v/fixed=%v/%dd/workers=%d", di, test, fixed, maxDim, workers)
						// Every stage's contrasts, fed the reference's
						// candidates in the reference's order.
						est := newContrastEstimator(ds, h.alpha(), h.mcIterations(), test, rand.New(rand.NewSource(h.Seed)))
						for si, stage := range stages {
							got, err := est.contrasts(ctx, core.Subspaces(stage), workers)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							for i, ref := range stage {
								if math.Float64bits(got[i]) != math.Float64bits(ref.Score) {
									t.Fatalf("%s: stage %d candidate %v: contrast %v, reference %v", name, si, ref.Subspace, got[i], ref.Score)
								}
							}
						}
						h.Workers = workers
						got, err := h.SearchContrastSubspaces(ctx, ds, maxDim)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := sameList(got, want); err != nil {
							t.Fatalf("%s: search differs from reference: %v", name, err)
						}
					}
				}
			}
		}
	}
}

func TestLookOutWorkerInvariance(t *testing.T) {
	ds, gt := testbed(t, 22)
	dets := []core.Detector{detector.NewLOF(15), detector.NewFastABOD(10)}
	for _, det := range dets {
		for _, dim := range []int{2, 3} {
			var want []core.ScoredSubspace
			for _, workers := range []int{1, 2, 4} {
				l := &LookOut{Detector: det, Budget: 12, Workers: workers}
				got, err := l.Summarize(context.Background(), ds, gt.Outliers(), dim)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					want = got
					continue
				}
				if err := sameList(got, want); err != nil {
					t.Errorf("%s %dd workers=%d differs from workers=1: %v", det.Name(), dim, workers, err)
				}
			}
		}
	}
}

func TestHiCSWorkerInvariance(t *testing.T) {
	ds, gt := testbed(t, 23)
	for _, fixed := range []bool{true, false} {
		for _, dim := range []int{2, 3} {
			var want []core.ScoredSubspace
			for _, workers := range []int{1, 2, 4} {
				h := &HiCS{Detector: detector.NewLOF(15), MCIterations: 20, CandidateCutoff: 20, FixedDim: fixed, Seed: 4, Workers: workers}
				got, err := h.Summarize(context.Background(), ds, gt.Outliers(), dim)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					want = got
					continue
				}
				if err := sameList(got, want); err != nil {
					t.Errorf("fixed=%v %dd workers=%d differs from workers=1: %v", fixed, dim, workers, err)
				}
			}
		}
	}
}

// scriptedDetector scores every view with LOF. It cancels cancel on its
// cancelAt-th call (when set), answers ctx's error once ctx is done, and
// fails on the subspaces named in fail.
type scriptedDetector struct {
	inner    core.Detector
	calls    atomic.Int64
	cancelAt int64
	cancel   context.CancelFunc
	fail     map[string]bool
}

func (d *scriptedDetector) Name() string { return "scripted" }

func (d *scriptedDetector) Scores(ctx context.Context, v *dataset.View) ([]float64, error) {
	if d.calls.Add(1) == d.cancelAt {
		d.cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if key := v.Subspace().Key(); d.fail[key] {
		return nil, fmt.Errorf("scripted failure on %s", key)
	}
	return d.inner.Scores(ctx, v)
}

// doneCountContext cancels itself the n-th time its Done channel is asked
// for. The contrast search asks at least once per stage, so a search over
// more than n stages is cancelled between stages.
type doneCountContext struct {
	context.Context
	cancel context.CancelFunc
	asked  atomic.Int64
	n      int64
}

func (c *doneCountContext) Done() <-chan struct{} {
	if c.asked.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

func TestSummarizersCancelledMidSearch(t *testing.T) {
	ds, gt := testbed(t, 24)
	const workers = 4
	summarizers := map[string]func(core.Detector) core.Summarizer{
		"LookOut": func(det core.Detector) core.Summarizer { return &LookOut{Detector: det, Workers: workers} },
		"HiCS":    func(det core.Detector) core.Summarizer { return &HiCS{Detector: det, MCIterations: 10, Seed: 1, FixedDim: true, Workers: workers} },
	}
	for name, mk := range summarizers {
		ctx, cancel := context.WithCancel(context.Background())
		det := &scriptedDetector{inner: detector.NewLOF(15), cancelAt: 6, cancel: cancel}
		list, err := mk(det).Summarize(ctx, ds, gt.Outliers(), 2)
		cancel()
		if !errors.Is(err, context.Canceled) || list != nil {
			t.Errorf("%s: cancelled run returned %d entries, err %v; want none and context.Canceled", name, len(list), err)
		}
	}

	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &doneCountContext{Context: base, cancel: cancel, n: 2}
	h := &HiCS{MCIterations: 10, Seed: 1, Workers: workers}
	list, err := h.SearchContrastSubspaces(ctx, ds, 4)
	if !errors.Is(err, context.Canceled) || list != nil {
		t.Errorf("contrast search cancelled after stage 1 returned %d entries, err %v; want none and context.Canceled", len(list), err)
	}
}

func TestSummarizersReportEarliestFailure(t *testing.T) {
	ds, gt := testbed(t, 25)
	ctx := context.Background()
	const workers = 4

	// LookOut scores candidates in enumeration order.
	enumOrder := allKeys(ds.D(), 2)
	// HiCS ranks its search result in contrast order.
	hics := func(det core.Detector) *HiCS {
		return &HiCS{Detector: det, MCIterations: 10, Seed: 1, FixedDim: true, Workers: workers}
	}
	found, err := hics(nil).SearchContrastSubspaces(ctx, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rankOrder []string
	for _, s := range found {
		rankOrder = append(rankOrder, s.Subspace.Key())
	}

	cases := []struct {
		name  string
		order []string
		mk    func(core.Detector) core.Summarizer
	}{
		{"LookOut", enumOrder, func(det core.Detector) core.Summarizer { return &LookOut{Detector: det, Workers: workers} }},
		{"HiCS", rankOrder, func(det core.Detector) core.Summarizer { return hics(det) }},
	}
	for _, c := range cases {
		early, late := c.order[2], c.order[len(c.order)-3]
		for round := 0; round < 10; round++ {
			det := &scriptedDetector{inner: detector.NewLOF(15), fail: map[string]bool{early: true, late: true}}
			_, err := c.mk(det).Summarize(ctx, ds, gt.Outliers(), 2)
			if want := "scripted failure on " + early; err == nil || err.Error() != want {
				t.Fatalf("%s round %d: err %v, want %q", c.name, round, err, want)
			}
		}
	}
}
