package core

import (
	"context"
	"math"
	"testing"

	"github.com/simrank/simpush/internal/exact"
	"github.com/simrank/simpush/internal/gen"
	"github.com/simrank/simpush/internal/graph"
)

const testC = 0.6

func mustEngine(t testing.TB, g *graph.Graph, opt Options) *SimPush {
	t.Helper()
	sp, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// testQueryState builds a query state with the engine's effective options,
// for tests and benchmarks that drive the unexported stages directly.
func testQueryState(sp *SimPush, u int32) *queryState {
	return &queryState{u: u, opt: sp.opt, p: sp.p}
}

// testGammas runs Algorithm 4 over all attention nodes of qs, the way
// QueryCtx does between Algorithms 3 and 5.
func testGammas(t testing.TB, sp *SimPush, qs *queryState) {
	t.Helper()
	if err := sp.computeGammas(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidOptions(t *testing.T) {
	g := gen.Cycle(3)
	bad := []Options{
		{C: 1.2},
		{C: -1},
		{Epsilon: 2},
		{Epsilon: -0.1},
		{Delta: 3},
		{C: math.NaN()},
		{Epsilon: math.NaN()},
		{Delta: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Epsilon: 5e-324}, // ε_h underflows to 0: L* is infinite
		{Epsilon: 1e-300}, // n_w overflows int
		{Epsilon: 1e-9},   // n_w ≈ 4.2e12, past an int32 counter
		{Epsilon: 1e-3, LevelDetect: LevelDetectHoeffding},
		{Epsilon: 1e-300, MaxWalks: 1000}, // a cap does not lift the n_w limit
		{Epsilon: 1e-9, MaxWalks: 1000},
		{MaxWalks: -5},
	}
	for _, o := range bad {
		if _, err := New(g, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestQueryNodeValidation(t *testing.T) {
	sp := mustEngine(t, gen.Cycle(3), Options{})
	if _, err := sp.Query(-1); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := sp.Query(3); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestSelfScoreAlwaysOne(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustEngine(t, g, Options{Epsilon: 0.05, Seed: 1})
	for _, u := range []int32{0, 17, 99} {
		res, err := sp.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scores[u] != 1 {
			t.Fatalf("s(%d,%d) = %v", u, u, res.Scores[u])
		}
	}
}

// The paper's guarantee (Theorem 1): s(u,v) − s̃(u,v) ≤ ε w.p. ≥ 1−δ, and
// the estimate never overshoots (Lemmas 1, 3, 4 are one-sided).
func TestAccuracyVsExact(t *testing.T) {
	graphs := []struct {
		name string
		g    func() (*graph.Graph, error)
	}{
		{"er", func() (*graph.Graph, error) { return gen.ErdosRenyi(120, 700, 3) }},
		{"copying", func() (*graph.Graph, error) { return gen.CopyingModel(150, 5, 0.3, 4) }},
		{"ba", func() (*graph.Graph, error) { return gen.BarabasiAlbert(120, 3, 5) }},
		{"sbm", func() (*graph.Graph, error) { return gen.SBM(120, 4, 6, 2, 6) }},
		{"forestfire", func() (*graph.Graph, error) { return gen.ForestFire(120, 0.4, 7) }},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			ex, err := exact.AllPairs(g, exact.Options{C: testC})
			if err != nil {
				t.Fatal(err)
			}
			const eps = 0.02
			sp := mustEngine(t, g, Options{Epsilon: eps, Seed: 11})
			for _, u := range []int32{0, 5, 50, 100} {
				res, err := sp.Query(u)
				if err != nil {
					t.Fatal(err)
				}
				for v := int32(0); v < g.N(); v++ {
					if v == u {
						continue
					}
					want := ex.At(u, v)
					got := res.Scores[v]
					if want-got > eps {
						t.Errorf("u=%d v=%d: underestimate too large: exact %v simpush %v", u, v, want, got)
					}
					if got-want > 1e-6 {
						t.Errorf("u=%d v=%d: overestimate: exact %v simpush %v", u, v, want, got)
					}
				}
			}
		})
	}
}

// Smaller ε must not hurt accuracy (and usually improves it).
func TestAccuracyImprovesWithEpsilon(t *testing.T) {
	g, err := gen.CopyingModel(200, 5, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.AllPairs(g, exact.Options{C: testC})
	if err != nil {
		t.Fatal(err)
	}
	u := int32(7)
	maxErr := func(eps float64) float64 {
		sp := mustEngine(t, g, Options{Epsilon: eps, Seed: 3})
		res, err := sp.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for v := int32(0); v < g.N(); v++ {
			if v == u {
				continue
			}
			if d := math.Abs(ex.At(u, v) - res.Scores[v]); d > worst {
				worst = d
			}
		}
		return worst
	}
	coarse := maxErr(0.1)
	fine := maxErr(0.005)
	if fine > 0.005 {
		t.Fatalf("eps=0.005 worst error %v exceeds bound", fine)
	}
	if coarse > 0.1 {
		t.Fatalf("eps=0.1 worst error %v exceeds bound", coarse)
	}
	if fine > coarse+1e-9 {
		t.Fatalf("finer epsilon degraded accuracy: %v vs %v", fine, coarse)
	}
}

func TestHoeffdingModeMatches(t *testing.T) {
	g, err := gen.CopyingModel(100, 4, 0.35, 13)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.AllPairs(g, exact.Options{C: testC})
	if err != nil {
		t.Fatal(err)
	}
	sp := mustEngine(t, g, Options{Epsilon: 0.05, Seed: 5, LevelDetect: LevelDetectHoeffding})
	res, err := sp.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.N(); v++ {
		if v == 3 {
			continue
		}
		if d := ex.At(3, v) - res.Scores[v]; d > 0.05 || d < -1e-6 {
			t.Fatalf("hoeffding mode error at v=%d: %v", v, d)
		}
	}
}

// Ablation: disabling the γ correction can only raise scores (repeated
// meetings are no longer discounted), and must keep them above the
// corrected estimates.
func TestDisableGammaOverestimates(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	u := int32(9)
	withG := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 7})
	noG := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 7, DisableGamma: true})
	a, err := withG.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	b, err := noG.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	raised := false
	for v := int32(0); v < g.N(); v++ {
		if b.Scores[v] < a.Scores[v]-1e-12 {
			t.Fatalf("γ-free score below corrected at v=%d: %v < %v", v, b.Scores[v], a.Scores[v])
		}
		if b.Scores[v] > a.Scores[v]+1e-9 {
			raised = true
		}
	}
	if !raised {
		t.Fatal("disabling γ changed nothing; ablation is vacuous on this graph")
	}
}

func TestDanglingQueryNode(t *testing.T) {
	// Node 0 of a star has in-degree 5; leaves have in-degree 0.
	g := gen.Star(6)
	sp := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 1})
	res, err := sp.Query(1) // leaf: no in-neighbors => s(1, v) = 0 for v != 1
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 6; v++ {
		want := 0.0
		if v == 1 {
			want = 1
		}
		if res.Scores[v] != want {
			t.Fatalf("s(1,%d) = %v, want %v", v, res.Scores[v], want)
		}
	}
	if res.L != 0 || len(res.Attention) != 0 {
		t.Fatalf("dangling query built a source graph: L=%d att=%d", res.L, len(res.Attention))
	}
}

func TestCycleAllZero(t *testing.T) {
	g := gen.Cycle(12)
	sp := mustEngine(t, g, Options{Epsilon: 0.01, Seed: 2})
	res, err := sp.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 12; v++ {
		if v == 4 {
			continue
		}
		if res.Scores[v] != 0 {
			t.Fatalf("cycle s(4,%d) = %v, want 0", v, res.Scores[v])
		}
	}
}

func TestSharedParentScore(t *testing.T) {
	g := graph.MustFromPairs([2]int32{0, 1}, [2]int32{0, 2})
	sp := mustEngine(t, g, Options{Epsilon: 0.005, Seed: 3})
	res, err := sp.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[2]-testC) > 0.005 {
		t.Fatalf("s(1,2) = %v, want %v", res.Scores[2], testC)
	}
}

func TestSingleNodeGraph(t *testing.T) {
	b := graph.NewBuilder(graph.BuildOptions{})
	b.SetN(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp := mustEngine(t, g, Options{})
	res, err := sp.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 1 {
		t.Fatal("single node self score")
	}
}

func TestDeterministicQueries(t *testing.T) {
	g, err := gen.CopyingModel(300, 6, 0.3, 19)
	if err != nil {
		t.Fatal(err)
	}
	a := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 99})
	b := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 99})
	ra, err := a.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	if ra.L != rb.L || len(ra.Attention) != len(rb.Attention) {
		t.Fatal("same seed, different structure")
	}
	for v := range ra.Scores {
		if ra.Scores[v] != rb.Scores[v] {
			t.Fatalf("same seed, different score at %d", v)
		}
	}
}

// Scratch reuse across queries must not leak state.
func TestRepeatedQueriesClean(t *testing.T) {
	g, err := gen.CopyingModel(300, 6, 0.3, 23)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 4})
	first, err := sp.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 20; u++ {
		if _, err := sp.Query(u); err != nil {
			t.Fatal(err)
		}
	}
	again, err := sp.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	for v := range first.Scores {
		if first.Scores[v] != again.Scores[v] {
			t.Fatalf("query not reproducible after scratch reuse at v=%d", v)
		}
	}
}

// Lemma 2: |A_u| ≤ ⌊√c/((1−√c)·ε_h)⌋ and attention nodes live within L* steps.
func TestAttentionBounds(t *testing.T) {
	g, err := gen.BarabasiAlbert(400, 5, 29)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustEngine(t, g, Options{Epsilon: 0.05, Seed: 6})
	bound := sp.p.MaxAttentionNodes()
	for u := int32(0); u < 30; u++ {
		res, err := sp.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Attention) > bound {
			t.Fatalf("u=%d: %d attention nodes exceeds Lemma 2 bound %d", u, len(res.Attention), bound)
		}
		if res.L > sp.p.lStar {
			t.Fatalf("u=%d: L=%d exceeds L*=%d", u, res.L, sp.p.lStar)
		}
		for _, a := range res.Attention {
			if a.H < sp.p.epsH {
				t.Fatalf("attention node below threshold: %+v", a)
			}
			if a.Gamma < 0 || a.Gamma > 1 {
				t.Fatalf("γ out of range: %+v", a)
			}
		}
	}
}

// Push conservation: on a graph with no dangling nodes, Σ_w h^(ℓ)(u,w) = √c^ℓ.
func TestHittingProbabilityConservation(t *testing.T) {
	g := gen.Complete(30)
	sp := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 8})
	qs := testQueryState(sp, 3)
	sp.sourcePush(context.Background(), qs)
	defer sp.resetSlots(qs)
	sqrtC := math.Sqrt(testC)
	for l, lv := range qs.levels {
		var sum float64
		for _, h := range lv.h {
			sum += h
		}
		want := math.Pow(sqrtC, float64(l))
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("level %d mass %v, want %v", l, sum, want)
		}
	}
}

func TestResultMetadata(t *testing.T) {
	g, err := gen.CopyingModel(500, 8, 0.3, 31)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustEngine(t, g, Options{Epsilon: 0.02, Seed: 9})
	res, err := sp.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Walks != sp.p.nWalks {
		t.Fatal("walk count not reported")
	}
	if res.SourceGraphSize <= 0 {
		t.Fatal("source graph size missing")
	}
	if res.Durations.SourcePush <= 0 {
		t.Fatal("stage durations missing")
	}
	if sp.MemoryBytes() <= 0 {
		t.Fatal("memory estimate missing")
	}
	if sp.Epsilon() != 0.02 || sp.Graph() != g {
		t.Fatal("accessors broken")
	}
	if sp.Options().Delta != 1e-4 {
		t.Fatal("defaulted options not visible")
	}
}

func TestMaxWalksCap(t *testing.T) {
	g := gen.Cycle(10)
	sp := mustEngine(t, g, Options{Epsilon: 0.005, MaxWalks: 500, Seed: 10})
	if sp.p.nWalks != 500 {
		t.Fatalf("walk cap ignored: %d", sp.p.nWalks)
	}
}

func TestParamsDerivation(t *testing.T) {
	p := deriveParams(Options{C: 0.6, Epsilon: 0.02, Delta: 1e-4}.withDefaults())
	sqrtC := math.Sqrt(0.6)
	wantEpsH := (1 - sqrtC) / (3 * sqrtC) * 0.02
	if math.Abs(p.epsH-wantEpsH) > 1e-12 {
		t.Fatalf("epsH = %v, want %v", p.epsH, wantEpsH)
	}
	if p.lStar < 20 || p.lStar > 30 {
		t.Fatalf("lStar = %d looks wrong for eps=0.02", p.lStar)
	}
	// Chernoff default must be far cheaper than Hoeffding.
	ph := deriveParams(Options{C: 0.6, Epsilon: 0.02, Delta: 1e-4, LevelDetect: LevelDetectHoeffding}.withDefaults())
	if p.nWalks*10 > ph.nWalks {
		t.Fatalf("chernoff %d vs hoeffding %d: expected >10x gap", p.nWalks, ph.nWalks)
	}
	if p.countThld < 1 || ph.countThld < 1 {
		t.Fatal("zero count threshold")
	}
}

func BenchmarkQueryCopying50k(b *testing.B) {
	g, err := gen.CopyingModel(50000, 10, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	sp := mustEngine(b, g, Options{Epsilon: 0.02, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Query(int32(i) % g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryBA50k(b *testing.B) {
	g, err := gen.BarabasiAlbert(50000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	sp := mustEngine(b, g, Options{Epsilon: 0.02, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Query(int32(i) % g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeterministicLevelMode(t *testing.T) {
	g, err := gen.CopyingModel(150, 5, 0.3, 33)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.AllPairs(g, exact.Options{C: testC})
	if err != nil {
		t.Fatal(err)
	}
	sp := mustEngine(t, g, Options{Epsilon: 0.05, Seed: 1, LevelDetect: LevelDetectDeterministic})
	res, err := sp.Query(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Walks != 0 {
		t.Fatalf("deterministic mode sampled %d walks", res.Walks)
	}
	// L is L* unless the push frontier dies earlier (every in-path of this
	// generated graph eventually reaches the seed nodes, which have no
	// in-neighbors, so early death is legitimate).
	if res.L > sp.p.lStar {
		t.Fatalf("L = %d exceeds L* = %d", res.L, sp.p.lStar)
	}
	for v := int32(0); v < g.N(); v++ {
		if v == 9 {
			continue
		}
		if d := ex.At(9, v) - res.Scores[v]; d > 0.05 || d < -1e-6 {
			t.Fatalf("deterministic mode error at v=%d: %v", v, d)
		}
	}
}

// Deterministic mode explores at least as deep as sampled mode, so its
// scores dominate (less truncation of Eq. 8's level sum).
func TestDeterministicModeDominates(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 35)
	if err != nil {
		t.Fatal(err)
	}
	sampled := mustEngine(t, g, Options{Epsilon: 0.05, Seed: 2})
	det := mustEngine(t, g, Options{Epsilon: 0.05, Seed: 2, LevelDetect: LevelDetectDeterministic})
	a, err := sampled.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := det.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	if b.L < a.L {
		t.Fatalf("deterministic L=%d < sampled L=%d", b.L, a.L)
	}
}
