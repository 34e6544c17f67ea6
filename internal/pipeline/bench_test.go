package pipeline

import (
	"context"
	"fmt"
	"testing"

	"anex/internal/dataset"
	"anex/internal/detector"
	"anex/internal/neighbors"
	"anex/internal/synth"
)

func gridBenchData(b *testing.B) (*dataset.Dataset, *dataset.GroundTruth) {
	d, g, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "grid-bench",
		TotalDims:           8,
		SubspaceDims:        []int{2, 2},
		N:                   300,
		OutliersPerSubspace: 4,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d, g
}

func gridBenchOptions() Options {
	return Options{BeamWidth: 10, RefOutPoolSize: 30, RefOutWidth: 10, LookOutBudget: 10, HiCSCutoff: 30, HiCSIterations: 20, TopK: 10}
}

// BenchmarkRunGrid measures the full grid at several total worker budgets.
// Cell results are byte-identical at every budget (the grid orders output
// by cell index and every inner loop is index-deterministic); on a
// multi-core machine workers=4 should be ≥2× faster than workers=1. Each
// iteration runs against a FRESH neighbourhood plane, so the number
// reflects within-grid sharing only, never warmth left over from a
// previous iteration.
func BenchmarkRunGrid(b *testing.B) {
	b.ReportAllocs()
	ds, gt := gridBenchData(b)
	opts := gridBenchOptions()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunGrid(context.Background(), GridSpec{
					Dataset: ds, GroundTruth: gt, Dims: []int{2}, Seed: 1,
					Options: opts, Cached: true, Workers: w,
					Plane: neighbors.NewPlane(0),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) == 0 {
					b.Fatal("empty grid result")
				}
			}
		})
	}
}

// BenchmarkRunGridKNN is the Figure-9 mini-grid with all three kNN-backed
// detectors (LOF k=15, FastABOD k=10, kNN-dist k=10) at n=800, where the
// O(n²) neighbourhood computation dominates each cell — the regime the
// shared plane targets. "shared" wires the three detectors to ONE fresh
// plane per iteration, so every subspace's neighbourhood is computed once
// per grid; "unshared" gives each detector a private plane, reproducing the
// previous per-detector caching. Both arms use score-cached detectors (the
// paper-grid configuration). The shared/unshared gap is the cross-detector
// dedup win, measured on the same box in the same run. Both arms sweep the
// grid's worker budget (1 and 2) the way BenchmarkRunGrid does.
func BenchmarkRunGridKNN(b *testing.B) {
	b.ReportAllocs()
	ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "grid-knn-bench",
		TotalDims:           8,
		SubspaceDims:        []int{2, 2},
		N:                   800,
		OutliersPerSubspace: 4,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := gridBenchOptions()
	for _, w := range []int{1, 2} {
		for _, mode := range []string{"shared", "unshared"} {
			b.Run(fmt.Sprintf("workers=%d/%s", w, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var dets []NamedDetector
					if mode == "shared" {
						dets = knnDetectors(neighbors.NewPlane(0))
					} else {
						dets = knnDetectors(nil)
						for j := range dets {
							dets[j].Detector.(neighborsSetter).SetNeighbors(neighbors.NewPlane(0))
						}
					}
					for j := range dets {
						dets[j].Detector = detector.NewCached(dets[j].Detector)
					}
					res, err := RunGrid(context.Background(), GridSpec{
						Dataset: ds, GroundTruth: gt, Dims: []int{2}, Seed: 1,
						Options: opts, Detectors: dets, Workers: w,
					})
					if err != nil {
						b.Fatal(err)
					}
					if len(res) == 0 {
						b.Fatal("empty grid result")
					}
				}
			})
		}
	}
}
