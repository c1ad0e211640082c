// Benchmarks reproducing the SimPush paper's evaluation, one testing.B
// benchmark per table/figure. Each iteration runs the corresponding
// experiment at reduced scale (so `go test -bench=.` stays in commodity
// time budgets); cmd/simbench runs the same experiments at full scale.
package simpush

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/simrank/simpush/internal/bench"
	"github.com/simrank/simpush/internal/core"
	"github.com/simrank/simpush/internal/engine"
	"github.com/simrank/simpush/internal/gen"
)

// benchOptions are the reduced-scale harness settings used by the
// per-figure benchmarks below.
func benchOptions() bench.Options {
	return bench.Options{
		Scale:         0.05,
		Queries:       2,
		K:             20,
		TruthSamples:  5000,
		MaxIndexBytes: 2 << 30,
		WalkCap:       20000,
		MaxQueryTime:  10 * time.Second,
		Seed:          0xbe9c,
	}
}

// benchDatasets are the stand-ins exercised by the figure benchmarks: one
// web graph and one social graph (the full eight run via cmd/simbench).
func benchDatasets() []gen.Dataset {
	return []gen.Dataset{gen.Roster[0], gen.Roster[2]}
}

func BenchmarkTable1Scaling(b *testing.B) {
	opt := benchOptions()
	opt.Scale = 0.25
	for i := 0; i < b.N; i++ {
		if err := bench.Table1(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Datasets(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4ErrorVsTime(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure4(io.Discard, opt, benchDatasets()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5PrecisionVsTime(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure5(io.Discard, opt, benchDatasets()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6ErrorVsMemory(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure6(io.Discard, opt, benchDatasets()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7ClueWeb(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure7(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelStats(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.LevelStats(io.Discard, opt, benchDatasets()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGammaAndWalks(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.Ablations(io.Discard, opt, benchDatasets()[:1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPushQuery measures the headline metric: one single-source
// query on a web graph, per epsilon setting.
func BenchmarkSimPushQuery(b *testing.B) {
	g, err := SyntheticWebGraph(100000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range engine.SimPushEpsilons {
		b.Run(settingName("eps", eps), func(b *testing.B) {
			sp, err := core.New(g, core.Options{Epsilon: eps, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.Query(int32(i) % g.N()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMethodsQuery compares one query per method at the middle
// parameter setting on a common web graph — the per-method spread behind
// Figure 4's vertical axis.
func BenchmarkMethodsQuery(b *testing.B) {
	g, err := SyntheticWebGraph(20000, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range Baselines() {
		b.Run(name, func(b *testing.B) {
			m, err := NewMethod(name, g, 2, 7)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Build(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(context.Background(), int32(i)%g.N()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func settingName(prefix string, v float64) string {
	switch v {
	case 0.05:
		return prefix + "_0.05"
	case 0.02:
		return prefix + "_0.02"
	case 0.01:
		return prefix + "_0.01"
	case 0.005:
		return prefix + "_0.005"
	default:
		return prefix + "_0.002"
	}
}

// BenchmarkIndexBuild measures preprocessing cost of the index-based
// methods at their middle setting — the cost paid on every graph update,
// which SimPush avoids entirely (the motivation of paper §1).
func BenchmarkIndexBuild(b *testing.B) {
	g, err := SyntheticWebGraph(20000, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"PRSim", "SLING", "READS", "TSF"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := NewMethod(name, g, 2, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicRequery measures the serving cost of an insert-then-query
// workload on an evolving graph, comparing the old orchestration (snapshot,
// throw the Client away, rebuild every engine's O(n) scratch) against the
// live-graph API (one long-lived Client whose engines rebind in place).
// The delta is the allocation churn the GraphSource redesign removes from
// every update cycle.
func BenchmarkDynamicRequery(b *testing.B) {
	const (
		n       = 50000
		workers = 4
	)
	ctx := context.Background()
	opt := Options{Epsilon: 0.05, Seed: 11}
	seedDynamic := func(b *testing.B) *DynamicGraph {
		b.Helper()
		base, err := SyntheticWebGraph(n, 10, 11)
		if err != nil {
			b.Fatal(err)
		}
		return DynamicFromGraph(base)
	}
	mutate := func(b *testing.B, d *DynamicGraph, i int) {
		b.Helper()
		f := int32(i*2654435761) % n
		if f < 0 {
			f = -f
		}
		if err := d.AddEdge(f, (f+1)%n); err != nil {
			b.Fatal(err)
		}
	}
	queries := func(i int) []int32 {
		qs := make([]int32, workers)
		for j := range qs {
			qs[j] = int32((i*workers + j) * 6151 % n)
		}
		return qs
	}

	b.Run("rebuild-client", func(b *testing.B) {
		d := seedDynamic(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mutate(b, d, i)
			g, err := d.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewClient(g, opt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.BatchSingleSource(ctx, queries(i), workers); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("rebind", func(b *testing.B) {
		d := seedDynamic(b)
		c, err := NewClient(d, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mutate(b, d, i)
			if _, err := c.BatchSingleSource(ctx, queries(i), workers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchThroughput measures multi-query throughput of the batch
// API with all cores.
func BenchmarkBatchThroughput(b *testing.B) {
	g, err := SyntheticWebGraph(50000, 10, 9)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]int32, 8)
	for i := range queries {
		queries[i] = int32((i + 1) * 6151 % int(g.N()))
	}
	c, err := NewClient(g, Options{Epsilon: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BatchSingleSource(ctx, queries, 0, WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
