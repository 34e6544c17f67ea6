// Package summarize implements the two explanation-summarization algorithms
// of the paper (Section 2.3): LookOut, which greedily maximises a
// submodular coverage objective over exhaustively enumerated subspaces, and
// HiCS, which searches for high-contrast subspaces of correlated features
// with a Monte-Carlo statistical test and uses a detector only to rank its
// output. Both rank subspaces that jointly separate a set of outliers from
// the inliers.
package summarize

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"anex/internal/core"
	"anex/internal/dataset"
	"anex/internal/parallel"
	"anex/internal/subspace"
)

// DefaultLookOutBudget is the number of subspaces LookOut selects
// (Section 3.1 of the paper).
const DefaultLookOutBudget = 100

// maxLookOutCandidates caps the exhaustive enumeration; the paper itself
// stops at ~900K subspaces (4d explanations of a 70d dataset).
const maxLookOutCandidates = 4_000_000

// LookOut is the explanation summariser of Gupta et al. (ECML/PKDD 2018).
// It scores every subspace of the requested dimensionality with an
// off-the-shelf detector and then greedily selects a budget of subspaces
// maximising the submodular objective
//
//	f(S_list) = Σ_{p ∈ P} max_{s ∈ S_list} score(p, s),
//
// which the greedy algorithm approximates within 1−1/e (Nemhauser–Wolsey).
// The implementation uses CELF lazy evaluation: marginal gains only shrink
// as the selection grows, so stale heap entries are re-evaluated on demand
// instead of recomputing every gain each round.
type LookOut struct {
	// Detector supplies the outlyingness scores.
	Detector core.Detector
	// Budget is the number of subspaces to select; zero means 100.
	Budget int
	// Workers bounds the goroutines scoring the enumerated candidates;
	// values ≤ 1 keep the enumeration serial. The selection is identical
	// at any worker count.
	Workers int
}

// NewLookOut returns a LookOut summariser with the paper's settings.
func NewLookOut(det core.Detector) *LookOut { return &LookOut{Detector: det} }

func (l *LookOut) Name() string { return "LookOut" }

func (l *LookOut) budget() int {
	if l.Budget <= 0 {
		return DefaultLookOutBudget
	}
	return l.Budget
}

// Summarize returns up to Budget subspaces of exactly targetDim in greedy
// selection order; each score is the marginal gain the subspace contributed
// when selected. The enumeration phase observes ctx between candidate
// subspaces, so cancellation aborts with ctx's error.
func (l *LookOut) Summarize(ctx context.Context, ds *dataset.Dataset, points []int, targetDim int) ([]core.ScoredSubspace, error) {
	if err := core.ValidateSummarizeArgs(ds, points, targetDim); err != nil {
		return nil, fmt.Errorf("lookout: %w", err)
	}
	if l.Detector == nil {
		return nil, fmt.Errorf("lookout: nil detector")
	}
	total := subspace.Count(ds.D(), targetDim)
	if total > maxLookOutCandidates {
		return nil, fmt.Errorf("lookout: C(%d,%d)=%d subspaces exceeds limit %d", ds.D(), targetDim, total, maxLookOutCandidates)
	}

	// Phase 1: exhaustively score every candidate subspace for the points
	// of interest. Each candidate writes only its own row of the flat
	// candidate-major matrix, so the matrix is identical at any worker
	// count; on failure the first error in candidate order is returned.
	nPoints := len(points)
	subs := make([]subspace.Subspace, 0, total)
	enum := subspace.NewEnumerator(ds.D(), targetDim)
	for s := enum.Next(); s != nil; s = enum.Next() {
		subs = append(subs, s.Clone())
	}
	scores := make([]float64, len(subs)*nPoints)
	errs := make([]error, len(subs))
	ctxErr := parallel.ForEach(ctx, l.Workers, len(subs), func(c int) {
		all, err := l.Detector.Scores(ctx, ds.View(subs[c]))
		if err != nil {
			errs[c] = err
			return
		}
		row := scores[c*nPoints : (c+1)*nPoints]
		for j, p := range points {
			row[j] = all[p]
		}
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	globalMin := math.Inf(1)
	for _, v := range scores {
		if v < globalMin {
			globalMin = v
		}
	}
	// The objective requires non-negative scores (property (i) of the
	// paper); detectors like FastABOD emit negative values, so shift the
	// whole score matrix to a zero minimum. Shifting by a constant does
	// not change which subspace maximises any point's score.
	if globalMin < 0 {
		for i := range scores {
			scores[i] -= globalMin
		}
	}

	// Phase 2: CELF greedy selection.
	best := make([]float64, nPoints) // current per-point maxima, f contribution
	initialGain := func(c int) float64 {
		var g float64
		for j := 0; j < nPoints; j++ {
			g += scores[c*nPoints+j]
		}
		return g
	}
	pq := make(celfQueue, len(subs))
	for c := range subs {
		pq[c] = &celfEntry{candidate: c, gain: initialGain(c), round: 0}
	}
	heap.Init(&pq)

	budget := l.budget()
	if budget > len(subs) {
		budget = len(subs)
	}
	selected := make([]core.ScoredSubspace, 0, budget)
	round := 0
	for len(selected) < budget && pq.Len() > 0 {
		top := pq[0]
		if top.round != round {
			// Stale bound: recompute the true marginal gain and reinsert.
			var g float64
			base := top.candidate * nPoints
			for j := 0; j < nPoints; j++ {
				if s := scores[base+j]; s > best[j] {
					g += s - best[j]
				}
			}
			top.gain = g
			top.round = round
			heap.Fix(&pq, 0)
			continue
		}
		heap.Pop(&pq)
		base := top.candidate * nPoints
		for j := 0; j < nPoints; j++ {
			if s := scores[base+j]; s > best[j] {
				best[j] = s
			}
		}
		selected = append(selected, core.ScoredSubspace{Subspace: subs[top.candidate], Score: top.gain})
		round++
	}
	return selected, nil
}

// celfEntry is a lazily evaluated marginal-gain bound for one candidate.
type celfEntry struct {
	candidate int
	gain      float64
	round     int // selection round the gain was computed at
	index     int
}

type celfQueue []*celfEntry

func (q celfQueue) Len() int { return len(q) }
func (q celfQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].candidate < q[j].candidate
}
func (q celfQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *celfQueue) Push(x any) {
	e := x.(*celfEntry)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *celfQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

var _ core.Summarizer = (*LookOut)(nil)
