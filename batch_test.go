package simpush

import (
	"context"
	"testing"
)

// newBatchClient returns a Client over g that the test closes at cleanup.
func newBatchClient(t *testing.T, g *Graph, opt Options) *Client {
	t.Helper()
	c, err := NewClient(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBatchSingleSource(t *testing.T) {
	g, err := SyntheticWebGraph(5000, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	queries := []int32{0, 17, 512, 4999, 17}
	c := newBatchClient(t, g, Options{Epsilon: 0.05, Seed: 3})
	results, err := c.BatchSingleSource(context.Background(), queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("missing result %d", i)
		}
		if res.Scores[queries[i]] != 1 {
			t.Fatalf("query %d: self score %v", i, res.Scores[queries[i]])
		}
	}
}

func TestBatchValidatesNodes(t *testing.T) {
	g, err := SyntheticWebGraph(1000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := newBatchClient(t, g, Options{})
	if _, err := c.BatchSingleSource(context.Background(), []int32{5, 99999}, 0); err == nil {
		t.Fatal("out-of-range query accepted")
	}
}

func TestBatchEmptyAndDefaults(t *testing.T) {
	g, err := SyntheticWebGraph(1000, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := newBatchClient(t, g, Options{}).BatchSingleSource(ctx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatal("nonempty result for empty batch")
	}
	// parallelism larger than batch clamps
	res, err = newBatchClient(t, g, Options{Epsilon: 0.1}).BatchSingleSource(ctx, []int32{1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatal("single query batch")
	}
}

func TestBatchMatchesSingleAccuracy(t *testing.T) {
	g, err := SyntheticWebGraph(1500, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	exactRow, err := ExactSingleSource(g, 7, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	c := newBatchClient(t, g, Options{Epsilon: 0.02, Seed: 9})
	results, err := c.BatchSingleSource(context.Background(), []int32{7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.N(); v++ {
		if v == 7 {
			continue
		}
		if d := exactRow[v] - results[0].Scores[v]; d > 0.02 || d < -1e-6 {
			t.Fatalf("batch result out of bound at %d: %v", v, d)
		}
	}
}

func TestDynamicGraphFlow(t *testing.T) {
	d := NewDynamicGraph(0, 16)
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	g, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := newBatchClient(t, g, Options{Epsilon: 0.01, Seed: 1}).SingleSource(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[2] < 0.55 || res.Scores[2] > 0.61 {
		t.Fatalf("s(1,2) = %v, want ~0.6", res.Scores[2])
	}
	// evolve: node 2 loses its link from 0, gains one from 3
	d.RemoveEdge(0, 2)
	if err := d.AddEdge(3, 2); err != nil {
		t.Fatal(err)
	}
	g2, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := newBatchClient(t, g2, Options{Epsilon: 0.01, Seed: 1}).SingleSource(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Scores[2] != 0 {
		t.Fatalf("after update s(1,2) = %v, want 0", res2.Scores[2])
	}
}

func TestDynamicFromGraph(t *testing.T) {
	g, err := SyntheticWebGraph(1000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := DynamicFromGraph(g)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.M() != g.M() || snap.N() != g.N() {
		t.Fatal("seeded dynamic graph differs")
	}
}

func TestBatchInvalidOptions(t *testing.T) {
	g, err := SyntheticWebGraph(1000, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(g, Options{Epsilon: 5}); err == nil {
		t.Fatal("invalid epsilon accepted by NewClient")
	}
	c := newBatchClient(t, g, Options{})
	if _, err := c.BatchSingleSource(context.Background(), []int32{1, 2}, 2, WithEpsilon(5)); err == nil {
		t.Fatal("invalid per-batch epsilon accepted")
	}
}
