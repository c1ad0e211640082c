package core

import (
	"context"
	"testing"

	"github.com/simrank/simpush/internal/gen"
	"github.com/simrank/simpush/internal/graph"
)

// Per-stage benchmarks: the complexity table (paper Table 3) splits
// SimPush into Source-Push, γ computation, and Reverse-Push. These
// benchmarks measure each stage on a mid-size web graph.

func stageGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.CopyingModel(50000, 10, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkStageSourcePush(b *testing.B) {
	g := stageGraph(b)
	sp := mustEngine(b, g, Options{Epsilon: 0.02, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs := testQueryState(sp, int32(i)%g.N())
		sp.sourcePush(context.Background(), qs)
		sp.resetSlots(qs)
	}
}

func BenchmarkStageGamma(b *testing.B) {
	g := stageGraph(b)
	sp := mustEngine(b, g, Options{Epsilon: 0.02, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs := testQueryState(sp, int32(i)%g.N())
		sp.sourcePush(context.Background(), qs)
		sp.computeHittingVecs(context.Background(), qs)
		sp.computeGammas(context.Background(), qs)
		sp.resetSlots(qs)
	}
}

func BenchmarkStageReversePush(b *testing.B) {
	g := stageGraph(b)
	sp := mustEngine(b, g, Options{Epsilon: 0.02, Seed: 1})
	// Prepare one query state outside the timed loop.
	qs := testQueryState(sp, 123)
	sp.sourcePush(context.Background(), qs)
	sp.computeHittingVecs(context.Background(), qs)
	sp.computeGammas(context.Background(), qs)
	scores := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range scores {
			scores[v] = 0
		}
		sp.reversePush(context.Background(), qs, scores)
	}
	b.StopTimer()
	sp.resetSlots(qs)
}

func BenchmarkLevelDetection(b *testing.B) {
	g := stageGraph(b)
	for _, mode := range []struct {
		name string
		m    LevelDetectMode
	}{
		{"chernoff", LevelDetectChernoff},
		{"hoeffding", LevelDetectHoeffding},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sp := mustEngine(b, g, Options{Epsilon: 0.05, Seed: 1, LevelDetect: mode.m, MaxWalks: 3_000_000})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.detectMaxLevel(context.Background(), testQueryState(sp, int32(i)%g.N()))
			}
		})
	}
}
