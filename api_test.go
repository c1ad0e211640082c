package simpush

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g, err := SyntheticWebGraph(2000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	res, err := c.SingleSource(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[100] != 1 {
		t.Fatal("self score != 1")
	}
	top, err := c.TopK(ctx, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("topk len = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("topk not sorted")
		}
		if top[i].Node == 100 {
			t.Fatal("query node in topk")
		}
	}
	if c.Graph() != g {
		t.Fatal("graph accessor")
	}
}

func TestAccuracyAgainstOracles(t *testing.T) {
	g, err := SyntheticWebGraph(1500, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u := int32(7)
	res, err := c.SingleSource(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	exactRow, err := ExactSingleSource(g, u, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.N(); v++ {
		if v == u {
			continue
		}
		if d := exactRow[v] - res.Scores[v]; d > 0.01 || d < -1e-6 {
			t.Fatalf("v=%d: exact %v simpush %v", v, exactRow[v], res.Scores[v])
		}
	}
	// Monte Carlo spot check on the strongest pair.
	top := TopK(res.Scores, 1, u)
	if len(top) == 1 && top[0].Score > 0.05 {
		mcVal := MonteCarloPair(g, u, top[0].Node, 0.6, 100000, 5)
		if math.Abs(mcVal-exactRow[top[0].Node]) > 0.02 {
			t.Fatalf("MC %v vs exact %v", mcVal, exactRow[top[0].Node])
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("# comment\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeList(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("loaded %v", g)
	}
	gu, err := LoadEdgeList(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if gu.M() != 6 {
		t.Fatalf("undirected m = %d", gu.M())
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges([]int32{0, 1}, []int32{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("%v", g)
	}
	if _, err := FromEdges([]int32{0}, []int32{}, false); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestNewMethodAll(t *testing.T) {
	g, err := SyntheticWebGraph(1200, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Baselines() {
		m, err := NewMethod(name, g, 1, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Build(); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		s, err := m.Query(context.Background(), 10)
		if err != nil {
			t.Fatalf("%s query: %v", name, err)
		}
		if s[10] != 1 {
			t.Fatalf("%s: self score %v", name, s[10])
		}
	}
	if _, err := NewMethod("SimPush", g, 9, 1); err == nil {
		t.Fatal("rank 9 accepted")
	}
	if _, err := NewMethod("Unknown", g, 0, 1); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDatasets(t *testing.T) {
	names := DatasetNames()
	if len(names) != 9 {
		t.Fatalf("dataset count = %d", len(names))
	}
	g, err := Dataset(names[0], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 1000 {
		t.Fatalf("tiny dataset n = %d", g.N())
	}
	if _, err := Dataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSyntheticSocialGraph(t *testing.T) {
	g, err := SyntheticSocialGraph(2000, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("n = %d", g.N())
	}
}

func TestSortRankedStable(t *testing.T) {
	rs := []Ranked{{3, 0.5}, {1, 0.9}, {2, 0.5}}
	SortRankedStable(rs)
	if rs[0].Node != 1 || rs[1].Node != 2 || rs[2].Node != 3 {
		t.Fatalf("sorted = %v", rs)
	}
}

func TestPairQuery(t *testing.T) {
	g, err := FromEdges([]int32{0, 0}, []int32{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	v, err := c.Pair(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.6) > 0.01 {
		t.Fatalf("Pair(1,2) = %v, want 0.6", v)
	}
	if _, err := c.Pair(ctx, 1, 99); err == nil {
		t.Fatal("bad target accepted")
	}
	self, err := c.Pair(ctx, 1, 1)
	if err != nil || self != 1 {
		t.Fatalf("Pair self = %v, %v", self, err)
	}
}
