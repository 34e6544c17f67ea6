package detector

import (
	"context"
	"math/rand"
	"testing"

	"anex/internal/dataset"
)

var ctx = context.Background()

func benchView(b *testing.B, n, d int) *dataset.View {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = rng.NormFloat64()
		}
	}
	ds, err := dataset.New("bench", cols, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ds.FullView()
}

// The paper's §4.3 per-subspace detector costs, at its sample size
// (n ≈ 1000, low-dimensional subspace views).
func BenchmarkDetectors1000x3(b *testing.B) {
	b.ReportAllocs()
	view := benchView(b, 1000, 3)
	b.Run("LOF", func(b *testing.B) {
		b.ReportAllocs()
		det := NewLOF(15)
		for i := 0; i < b.N; i++ {
			det.Scores(ctx, view)
		}
	})
	b.Run("FastABOD", func(b *testing.B) {
		b.ReportAllocs()
		det := NewFastABOD(10)
		for i := 0; i < b.N; i++ {
			det.Scores(ctx, view)
		}
	})
	b.Run("iForest-1rep", func(b *testing.B) {
		b.ReportAllocs()
		det := &IsolationForest{Trees: 100, Subsample: 256, Repetitions: 1, Seed: 1}
		for i := 0; i < b.N; i++ {
			det.Scores(ctx, view)
		}
	})
	b.Run("LODA", func(b *testing.B) {
		b.ReportAllocs()
		det := NewLODA(1)
		for i := 0; i < b.N; i++ {
			det.Scores(ctx, view)
		}
	})
	b.Run("kNN-dist", func(b *testing.B) {
		b.ReportAllocs()
		det := NewKNNDist(10)
		for i := 0; i < b.N; i++ {
			det.Scores(ctx, view)
		}
	})
}

func BenchmarkLOFByDimensionality(b *testing.B) {
	b.ReportAllocs()
	for _, d := range []int{2, 5, 20} {
		view := benchView(b, 1000, d)
		b.Run(string(rune('0'+d/10))+string(rune('0'+d%10))+"d", func(b *testing.B) {
			b.ReportAllocs()
			det := NewLOF(15)
			for i := 0; i < b.N; i++ {
				det.Scores(ctx, view)
			}
		})
	}
}

func BenchmarkCachedDetectorHit(b *testing.B) {
	b.ReportAllocs()
	view := benchView(b, 500, 3)
	c := NewCached(NewLOF(15))
	c.Scores(ctx, view) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Scores(ctx, view)
	}
}

// BenchmarkIForestSmallCell is one cold iForest scoring call of a
// small-scale paper-grid cell (n=250, 3d view, 50 trees, ψ=128, 3
// repetitions) — the call that dominates the end-to-end paper grid's CPU.
// scripts/check.sh gates its ratio to the brute-force 2d kNN loop.
func BenchmarkIForestSmallCell(b *testing.B) {
	b.ReportAllocs()
	view := benchView(b, 250, 3)
	det := &IsolationForest{Trees: 50, Subsample: 128, Repetitions: 3, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := det.Scores(ctx, view); err != nil {
			b.Fatal(err)
		}
	}
}
