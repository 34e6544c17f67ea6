package summarize

import (
	"context"
	"fmt"
	"testing"

	"anex/internal/detector"
	"anex/internal/synth"
)

// BenchmarkLookOutIForest is one LookOut cell of the small-scale paper
// grid's heaviest kind: every 3d subspace of a 12d dataset (n=250) scored by
// iForest (50 trees, ψ=128, 3 repetitions) through a score memo that is
// fresh for each iteration, so every candidate is scored cold. The
// workers=1 and workers=2 arms measure how the candidate scoring scales;
// scripts/check.sh gates their ratio.
func BenchmarkLookOutIForest(b *testing.B) {
	ds, gt, err := synth.GenerateSubspaceOutliers(synth.SubspaceConfig{
		Name:                "lookout-iforest-bench",
		TotalDims:           12,
		SubspaceDims:        []int{3, 3},
		N:                   250,
		OutliersPerSubspace: 4,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	points := gt.Outliers()
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := &LookOut{
					Detector: detector.NewCached(&detector.IsolationForest{Trees: 50, Subsample: 128, Repetitions: 3, Seed: 1}),
					Budget:   30,
					Workers:  w,
				}
				if _, err := l.Summarize(context.Background(), ds, points, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
