package summarize

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"anex/internal/dataset"
	"anex/internal/parallel"
	"anex/internal/stats"
	"anex/internal/subspace"
)

// ContrastTest selects the two-sample statistical test HiCS uses to measure
// subspace contrast (footnote 2 of the paper).
type ContrastTest int

const (
	// WelchTest uses Welch's two-sample t-test (the paper's setting).
	WelchTest ContrastTest = iota
	// KSTest uses the two-sample Kolmogorov–Smirnov test.
	KSTest
)

func (t ContrastTest) String() string {
	if t == KSTest {
		return "KS"
	}
	return "Welch"
}

// contrastEstimator computes Monte-Carlo subspace contrast over one
// dataset. It owns the per-feature sort orders, which are computed once and
// shared across the thousands of subspace evaluations of a HiCS run, and
// the RNG every contrast draws from.
type contrastEstimator struct {
	ds      *dataset.Dataset
	sortIdx [][]int // sortIdx[f] = point indices ordered by feature f value
	alpha   float64
	mc      int
	test    ContrastTest
	rng     *rand.Rand
}

func newContrastEstimator(ds *dataset.Dataset, alpha float64, mcIterations int, test ContrastTest, rng *rand.Rand) *contrastEstimator {
	e := &contrastEstimator{
		ds:    ds,
		alpha: alpha,
		mc:    mcIterations,
		test:  test,
		rng:   rng,
	}
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

// minConditionalSample is the smallest conditional sample an iteration must
// produce to contribute; smaller intersections carry no statistical signal.
const minConditionalSample = 5

// planBlock is the number of candidates planned ahead of evaluation at
// once. It bounds the plan's memory at 4·mc·m bytes per candidate times
// the block, however wide the dataset: stage 1 alone has d(d−1)/2
// candidates, 400 MB of draws at once for a 1000d dataset at mc=100.
const planBlock = 2048

// contrastScratch is one shard's evaluation workspace.
type contrastScratch struct {
	mask []int     // per-point slice-membership counter, zero between iterations
	cond []float64 // the conditional sample
}

// sliceSize is the number of points each conditioning feature keeps for an
// m-dimensional subspace, so the expected conditional sample is α·n: each
// of the m−1 conditioning features keeps an α^(1/(m−1)) fraction.
func (e *contrastEstimator) sliceSize(m int) int {
	n := e.ds.N()
	size := int(math.Ceil(math.Pow(e.alpha, 1/float64(m-1)) * float64(n)))
	if size < 1 {
		size = 1
	}
	if size > n {
		size = n
	}
	return size
}

// contrasts estimates the contrast of every candidate: the average, over
// MC iterations, of (1 − p-value) of a two-sample test comparing the
// marginal distribution of a randomly chosen test feature against its
// distribution conditioned on random adjacent slices of the remaining
// features. High contrast means the features are strongly dependent — the
// HiCS signal for subspaces likely to separate outliers from inliers.
//
// The random numbers are drawn serially in candidate order (plan), and the
// candidates are then evaluated over the worker budget, so the contrasts
// are identical at any worker count. Cancelling ctx returns its error and
// no contrasts.
func (e *contrastEstimator) contrasts(ctx context.Context, cands []subspace.Subspace, workers int) ([]float64, error) {
	out := make([]float64, len(cands))
	scratch := make([]contrastScratch, parallel.ShardCount(workers, len(cands)))
	for lo := 0; lo < len(cands); lo += planBlock {
		block := cands[lo:min(lo+planBlock, len(cands))]
		draws := e.plan(block)
		err := parallel.ForEachShard(ctx, workers, len(block), func(shard, i int) {
			out[lo+i] = e.evaluate(block[i], draws[i], &scratch[shard])
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plan draws, serially and in candidate order, every random number the
// candidates' contrasts consume. Per MC iteration of an m-dimensional
// candidate that is the position of the test feature (Intn(m)), then one
// slice start (Intn(n−sliceSize+1)) per conditioning feature in subspace
// order. How many numbers are drawn never depends on the data, so
// evaluating the candidates in any order afterwards gives exactly the
// contrasts of one serial pass. Candidates below 2d draw nothing.
func (e *contrastEstimator) plan(cands []subspace.Subspace) [][]int32 {
	total := 0
	for _, s := range cands {
		if m := s.Dim(); m >= 2 {
			total += e.mc * m
		}
	}
	flat := make([]int32, total)
	draws := make([][]int32, len(cands))
	for c, s := range cands {
		m := s.Dim()
		if m < 2 {
			continue
		}
		starts := e.ds.N() - e.sliceSize(m) + 1
		d := flat[: e.mc*m : e.mc*m]
		flat = flat[e.mc*m:]
		for i := 0; i < len(d); i += m {
			d[i] = int32(e.rng.Intn(m))
			for j := 1; j < m; j++ {
				d[i+j] = int32(e.rng.Intn(starts))
			}
		}
		draws[c] = d
	}
	return draws
}

// evaluate computes the contrast of s from its planned draws, using sc for
// scratch.
func (e *contrastEstimator) evaluate(s subspace.Subspace, draws []int32, sc *contrastScratch) float64 {
	m := s.Dim()
	if m < 2 {
		return 0
	}
	n := e.ds.N()
	size := e.sliceSize(m)
	if sc.mask == nil {
		sc.mask = make([]int, n)
	}
	var sum float64
	valid := 0
	for ; len(draws) > 0; draws = draws[m:] {
		testPos := int(draws[0])
		starts := draws[1:m]
		// Mark the points inside every conditioning slice.
		for pos, f := range s {
			if pos == testPos {
				continue
			}
			start := int(starts[0])
			starts = starts[1:]
			for _, p := range e.sortIdx[f][start : start+size] {
				sc.mask[p]++
			}
		}
		// Collect the conditional sample: points inside all m−1 slices.
		cond := sc.cond[:0]
		col := e.ds.Column(s[testPos])
		for p := 0; p < n; p++ {
			if sc.mask[p] == m-1 {
				cond = append(cond, col[p])
			}
			sc.mask[p] = 0
		}
		sc.cond = cond
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
