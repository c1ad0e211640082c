package simpush

import (
	"context"
	"testing"
)

// Edge cases of top-k extraction: k <= 0, k beyond the candidate count,
// and fully tied scores.
func TestTopKEdgeCases(t *testing.T) {
	scores := []float64{1.0, 0.5, 0.5, 0.5, 0.5}

	// k <= 0 yields empty results, never a panic.
	if got := TopK(scores, 0, 0); len(got) != 0 {
		t.Fatalf("k=0: got %v", got)
	}
	if got := TopK(scores, -3, 0); len(got) != 0 {
		t.Fatalf("k=-3: got %v", got)
	}

	// k > n clamps to the candidate count (n-1 with the query excluded).
	got := TopK(scores, 100, 0)
	if len(got) != 4 {
		t.Fatalf("k>n: len = %d, want 4", len(got))
	}

	// All-tied scores break ties by ascending node id, deterministically.
	for i, r := range got {
		if r.Node != int32(i+1) || r.Score != 0.5 {
			t.Fatalf("tied ordering: %v", got)
		}
	}

	// rankedFrom guards k < 0 as well.
	if out := rankedFrom(scores, []int32{1, 2}, -1); len(out) != 0 {
		t.Fatalf("rankedFrom k=-1: %v", out)
	}

	// No exclusion when exclude is negative.
	if got := TopK(scores, 2, -1); len(got) != 2 || got[0].Node != 0 {
		t.Fatalf("exclude=-1: %v", got)
	}
}

// SortRankedStable on all-tied scores must preserve ascending id order and
// stay stable for equal (score, id)-distinct entries.
func TestSortRankedStableAllTied(t *testing.T) {
	rs := []Ranked{{4, 0.2}, {1, 0.2}, {3, 0.2}, {2, 0.2}}
	SortRankedStable(rs)
	for i, r := range rs {
		if r.Node != int32(i+1) {
			t.Fatalf("tied sort: %v", rs)
		}
	}
}

// Client.TopK mirrors the package-level clamping semantics.
func TestClientTopKEdgeCases(t *testing.T) {
	g, err := FromEdges([]int32{0, 0, 0}, []int32{1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got, err := c.TopK(ctx, 1, 0); err != nil || len(got) != 0 {
		t.Fatalf("k=0: %v, %v", got, err)
	}
	if got, err := c.TopK(ctx, 1, -5); err != nil || len(got) != 0 {
		t.Fatalf("k<0: %v, %v", got, err)
	}
	got, err := c.TopK(ctx, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("k>n: len = %d, want 3 (n-1 candidates)", len(got))
	}
	// s(1,2) = s(1,3) = c: tied scores order by node id.
	if got[0].Node != 2 || got[1].Node != 3 {
		t.Fatalf("tied client topk: %v", got)
	}
}

func TestTopKAdaptiveMatchesFine(t *testing.T) {
	g, err := SyntheticWebGraph(5000, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	u := int32(321)
	adaptive, err := c.TopKAdaptive(ctx, u, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Rounds < 1 || len(adaptive.Results) == 0 {
		t.Fatalf("adaptive = %+v", adaptive)
	}

	fine, err := NewClient(g, Options{Epsilon: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer fine.Close()
	want, err := fine.TopK(ctx, u, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The adaptive set must agree with the fine set on the clear part of
	// the ranking (scores can tie near the tail; compare as sets).
	wantSet := map[int32]bool{}
	for _, r := range want {
		wantSet[r.Node] = true
	}
	agree := 0
	for _, r := range adaptive.Results {
		if wantSet[r.Node] {
			agree++
		}
	}
	if agree < len(adaptive.Results)-2 {
		t.Fatalf("adaptive top-k diverges: %d/%d agree", agree, len(adaptive.Results))
	}
}

func TestTopKAdaptiveStopsEarlyOnClearGap(t *testing.T) {
	// Shared-parent graph: s(1,2)=0.6 and everything else is 0 — a huge
	// gap, so the coarsest round must already certify the answer.
	g, err := FromEdges([]int32{0, 0}, []int32{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.TopKAdaptive(context.Background(), 1, 1, 0.08, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (gap is 0.6)", res.Rounds)
	}
	if len(res.Results) != 1 || res.Results[0].Node != 2 {
		t.Fatalf("results = %v", res.Results)
	}
}

func TestTopKAdaptiveValidation(t *testing.T) {
	g, err := FromEdges([]int32{0}, []int32{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.TopKAdaptive(ctx, 0, 0, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := c.TopKAdaptive(ctx, 99, 1, 0, 0); err == nil {
		t.Fatal("bad node accepted")
	}
	// startEps below floor clamps rather than erroring
	if _, err := c.TopKAdaptive(ctx, 0, 1, 0.001, 0.01); err != nil {
		t.Fatal(err)
	}
}
