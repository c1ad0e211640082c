package prsim

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/simrank/simpush/internal/exact"
	"github.com/simrank/simpush/internal/gen"
	"github.com/simrank/simpush/internal/graph"
)

const c = 0.6

func built(t testing.TB, g *graph.Graph, p Params) *Engine {
	t.Helper()
	e, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := New(g, Params{C: 2}); err == nil {
		t.Fatal("c=2 accepted")
	}
	if _, err := New(g, Params{EpsA: 7}); err == nil {
		t.Fatal("eps=7 accepted")
	}
	e, err := New(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), 0); err == nil {
		t.Fatal("query before build accepted")
	}
}

func TestMetadata(t *testing.T) {
	e := built(t, gen.Cycle(5), Params{EpsA: 0.1, Seed: 1})
	if e.Name() != "PRSim" || !e.Indexed() || e.Setting() == "" {
		t.Fatal("metadata wrong")
	}
	if e.IndexBytes() <= 0 {
		t.Fatal("index bytes missing")
	}
	if e.NumWalks() < 1 {
		t.Fatal("no walks")
	}
	if _, err := e.Query(context.Background(), 99); err == nil {
		t.Fatal("bad node accepted")
	}
}

func TestHubSelection(t *testing.T) {
	// Star: node 0 has the top in-degree and must be the first hub.
	e := built(t, gen.Star(50), Params{EpsA: 0.1, NumHubs: 3, Seed: 2})
	if e.hubs[0] != 0 {
		t.Fatalf("top hub = %d, want 0", e.hubs[0])
	}
	if len(e.hubs) != 3 {
		t.Fatalf("hub count %d", len(e.hubs))
	}
	if e.hubIdx[0] != 0 {
		t.Fatal("hubIdx broken")
	}
}

func TestDefaultHubCount(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := built(t, g, Params{EpsA: 0.2, Seed: 3})
	if len(e.hubs) != 10 { // ⌈√100⌉
		t.Fatalf("default hubs = %d, want 10", len(e.hubs))
	}
}

func TestSharedParent(t *testing.T) {
	g := graph.MustFromPairs([2]int32{0, 1}, [2]int32{0, 2})
	e := built(t, g, Params{EpsA: 0.02, Seed: 4})
	s, err := e.Query(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[2]-c) > 0.05 {
		t.Fatalf("s(1,2) = %v, want %v", s[2], c)
	}
}

func TestAccuracyVsExact(t *testing.T) {
	g, err := gen.CopyingModel(120, 5, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.AllPairs(g, exact.Options{C: c})
	if err != nil {
		t.Fatal(err)
	}
	const epsA = 0.02
	e := built(t, g, Params{EpsA: epsA, Seed: 5})
	for _, u := range []int32{3, 40, 99} {
		s, err := e.Query(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		var worst, sum float64
		for v := int32(0); v < g.N(); v++ {
			if v == u {
				continue
			}
			d := math.Abs(ex.At(u, v) - s[v])
			sum += d
			if d > worst {
				worst = d
			}
		}
		avg := sum / float64(g.N()-1)
		if avg > epsA {
			t.Fatalf("u=%d: avg error %v exceeds %v", u, avg, epsA)
		}
		if worst > 6*epsA {
			t.Fatalf("u=%d: worst error %v too large", u, worst)
		}
	}
}

// TestAccuracyVsExactUndirected queries an undirected power-law graph,
// where walks reach the high in-degree hubs often, so the hub η estimate
// carries much of the score. A hub η that counted meetings instead of
// non-meetings put the max error here at 0.068, with 205 entries over ε_a.
func TestAccuracyVsExactUndirected(t *testing.T) {
	g, err := gen.BarabasiAlbert(600, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.AllPairs(g, exact.Options{C: c})
	if err != nil {
		t.Fatal(err)
	}
	const epsA = 0.01
	e := built(t, g, Params{EpsA: epsA, Seed: 5})
	for _, u := range []int32{3, 40, 99, 500, 599} {
		s, err := e.Query(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < g.N(); v++ {
			if d := math.Abs(ex.At(u, v) - s[v]); d > epsA {
				t.Fatalf("u=%d v=%d: |%v - %v| = %v exceeds eps_a %v", u, v, s[v], ex.At(u, v), d, epsA)
			}
		}
	}
}

// TestHubEtaIndependentOfScheduling builds the same index with one and
// with two hub workers: hubs are claimed dynamically, so the η estimates
// must come from per-hub streams, not per-worker ones.
func TestHubEtaIndependentOfScheduling(t *testing.T) {
	g, err := gen.BarabasiAlbert(400, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var etas [][]float64
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		etas = append(etas, built(t, g, Params{EpsA: 0.05, Seed: 6}).hubEta)
	}
	if !slices.Equal(etas[0], etas[1]) {
		t.Fatalf("hubEta differs between GOMAXPROCS 1 and 2:\n%v\n%v", etas[0], etas[1])
	}
}

func TestWalkCap(t *testing.T) {
	g := gen.Cycle(10)
	e, err := New(g, Params{EpsA: 0.005, WalkCap: 123})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumWalks() != 123 {
		t.Fatalf("walk cap ignored: %d", e.NumWalks())
	}
}
