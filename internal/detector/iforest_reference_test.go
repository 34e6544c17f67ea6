package detector

// The production forest builder (flat arena, 16-byte nodes with
// precomputed leaf path lengths, column-wise split tests) replaced a
// per-node-allocating recursion under a bit-identicality contract: same
// RNG draw sites, same stable partition, same leaf conditions, same
// scores. This file keeps that recursion as an executable reference with
// its OWN node type, traversal, c(n) and identical-points test — nothing
// here calls the production kernel — and pins the contract across
// subsample clamping, small ψ, 1d views, non-contiguous subspace views,
// duplicate rows, constant columns, NaN coordinates, worker counts and
// multiple repetitions (the RNG stream spans repetitions, so any drift
// compounds).

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"anex/internal/dataset"
	"anex/internal/subspace"
)

type refTree struct {
	nodes []refNode
}

type refNode struct {
	// Interior: feature ≥ 0, split value, children indexes.
	// Leaf: feature == -1, size = number of training points in the leaf.
	feature     int
	split       float64
	left, right int
	size        int
}

func refAveragePathLength(n float64) float64 {
	if n <= 1 {
		return 0
	}
	if n == 2 {
		return 1
	}
	h := math.Log(n-1) + 0.5772156649015329
	return 2*h - 2*(n-1)/n
}

func (t *refTree) pathLength(x []float64) float64 {
	nodeID := 0
	depth := 0
	for {
		node := t.nodes[nodeID]
		if node.feature == -1 {
			return float64(depth) + refAveragePathLength(float64(node.size))
		}
		if x[node.feature] < node.split {
			nodeID = node.left
		} else {
			nodeID = node.right
		}
		depth++
	}
}

func refAllIdentical(v *dataset.View, idx []int) bool {
	if len(idx) < 2 {
		return true
	}
	first := v.Point(idx[0])
	for _, i := range idx[1:] {
		p := v.Point(i)
		for d := range p {
			if p[d] != first[d] {
				return false
			}
		}
	}
	return true
}

func refBuildForest(v *dataset.View, trees, psi int, rng *rand.Rand) []*refTree {
	n := v.N()
	heightLimit := int(math.Ceil(math.Log2(float64(psi))))
	if heightLimit < 1 {
		heightLimit = 1
	}
	forest := make([]*refTree, trees)
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	for t := range forest {
		for i := 0; i < psi; i++ {
			j := i + rng.Intn(n-i)
			sample[i], sample[j] = sample[j], sample[i]
		}
		tree := &refTree{}
		refBuild(tree, v, append([]int(nil), sample[:psi]...), 0, heightLimit, rng)
		forest[t] = tree
	}
	return forest
}

func refBuild(t *refTree, v *dataset.View, idx []int, depth, limit int, rng *rand.Rand) int {
	nodeID := len(t.nodes)
	t.nodes = append(t.nodes, refNode{})
	if depth >= limit || len(idx) <= 1 || refAllIdentical(v, idx) {
		t.nodes[nodeID] = refNode{feature: -1, size: len(idx)}
		return nodeID
	}
	dim := v.Dim()
	var feature int
	var lo, hi float64
	found := false
	for attempt := 0; attempt < 8 && !found; attempt++ {
		feature = rng.Intn(dim)
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			val := v.Point(i)[feature]
			if val < lo {
				lo = val
			}
			if val > hi {
				hi = val
			}
		}
		found = hi > lo
	}
	if !found {
		t.nodes[nodeID] = refNode{feature: -1, size: len(idx)}
		return nodeID
	}
	split := lo + rng.Float64()*(hi-lo)
	var left, right []int
	for _, i := range idx {
		if v.Point(i)[feature] < split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		t.nodes[nodeID] = refNode{feature: -1, size: len(idx)}
		return nodeID
	}
	l := refBuild(t, v, left, depth+1, limit, rng)
	r := refBuild(t, v, right, depth+1, limit, rng)
	t.nodes[nodeID] = refNode{feature: feature, split: split, left: l, right: r}
	return nodeID
}

func refScores(f *IsolationForest, v *dataset.View) []float64 {
	n := v.N()
	psi := f.subsample()
	if psi > n {
		psi = n
	}
	reps := f.repetitions()
	scores := make([]float64, n)
	base := f.Seed ^ hashString(v.Dataset().Name()+"|"+v.Subspace().Key())
	for r := 0; r < reps; r++ {
		rng := rand.New(rand.NewSource(base + int64(r)*int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)))
		forest := refBuildForest(v, f.trees(), psi, rng)
		c := refAveragePathLength(float64(psi))
		for i := 0; i < n; i++ {
			var sum float64
			for _, t := range forest {
				sum += t.pathLength(v.Point(i))
			}
			e := sum / float64(len(forest))
			scores[i] += math.Pow(2, -e/c)
		}
	}
	for i := range scores {
		scores[i] /= float64(reps)
	}
	return scores
}

// refDataset draws n×d standard normals. dup > 0 makes every point i ≥ dup
// a copy of point i mod dup (duplicate rows); constCol ≥ 0 sets that
// column to a constant; nanEvery > 0 puts a NaN in column 0 of every
// nanEvery-th point.
func refDataset(t *testing.T, n, d, dup, constCol, nanEvery int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			switch {
			case f == constCol:
				cols[f][i] = 3.5
			case dup > 0 && i >= dup:
				cols[f][i] = cols[f][i%dup]
			default:
				cols[f][i] = rng.NormFloat64()
			}
		}
	}
	if nanEvery > 0 {
		for i := 0; i < n; i += nanEvery {
			cols[0][i] = math.NaN()
		}
	}
	ds, err := dataset.New("probe", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestArenaForestMatchesRecursiveReference(t *testing.T) {
	cases := []struct {
		name                    string
		n, d                    int
		sub                     []int // nil = full view
		dup, constCol, nanEvery int
		trees, psi, reps        int
	}{
		{name: "1000x3", n: 1000, d: 3, constCol: -1, trees: 100, psi: 256, reps: 1},
		{name: "1000x3/3reps", n: 1000, d: 3, constCol: -1, trees: 100, psi: 256, reps: 3},
		{name: "psi-clamped", n: 300, d: 5, constCol: -1, trees: 50, psi: 256, reps: 2},
		{name: "small-psi", n: 100, d: 2, constCol: -1, trees: 30, psi: 16, reps: 2},
		{name: "1d/psi=n", n: 64, d: 1, constCol: -1, trees: 20, psi: 64, reps: 1},
		// Columns {1,4,7} of a 9d dataset: the column-wise build must map
		// view column j to source feature sub[j].
		{name: "subspace-1-4-7-of-9", n: 400, d: 9, sub: []int{1, 4, 7}, constCol: -1, trees: 50, psi: 128, reps: 2},
		// 10 distinct rows repeated: small samples are all-identical leaves.
		{name: "duplicate-rows", n: 200, d: 3, dup: 10, constCol: -1, trees: 40, psi: 64, reps: 2},
		// A constant column forces the no-split retry and, with 2d, leaves
		// where every attempt draws the constant column.
		{name: "constant-column", n: 200, d: 2, constCol: 1, trees: 40, psi: 64, reps: 2},
		{name: "duplicates+constant", n: 150, d: 3, dup: 5, constCol: 0, trees: 40, psi: 32, reps: 2},
		// NaN is skipped by the range scan and always goes right.
		{name: "nan-coordinates", n: 300, d: 3, constCol: -1, nanEvery: 7, trees: 40, psi: 64, reps: 2},
	}
	for _, tc := range cases {
		ds := refDataset(t, tc.n, tc.d, tc.dup, tc.constCol, tc.nanEvery)
		sub := subspace.Full(tc.d)
		if tc.sub != nil {
			sub = subspace.New(tc.sub...)
		}
		f := &IsolationForest{Trees: tc.trees, Subsample: tc.psi, Repetitions: tc.reps, Seed: 42}
		want := refScores(f, ds.View(sub))
		for _, workers := range []int{1, 4} {
			f.Workers = workers
			got, err := f.Scores(context.Background(), ds.View(sub))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: score[%d] = %v, want %v", tc.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestIForestScoresDoNotGather pins that scoring reads the view's columns
// in place: a fresh view scored by iForest is never materialised.
func TestIForestScoresDoNotGather(t *testing.T) {
	ds := refDataset(t, 300, 6, 0, -1, 0)
	before := ds.Gathers()
	f := &IsolationForest{Trees: 20, Subsample: 64, Repetitions: 2, Seed: 1, Workers: 2}
	if _, err := f.Scores(context.Background(), ds.View(subspace.New(0, 2, 5))); err != nil {
		t.Fatal(err)
	}
	if got := ds.Gathers(); got != before {
		t.Fatalf("iForest materialised the view: Gathers %d → %d", before, got)
	}
}
