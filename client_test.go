package simpush

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// A single Client must serve parallel query streams from many goroutines
// with no data races (run under -race) and correct results.
func TestClientConcurrentQueries(t *testing.T) {
	g, err := SyntheticWebGraph(3000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 12
	const queriesPerWorker = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < queriesPerWorker; q++ {
				u := int32((w*queriesPerWorker + q) * 37 % int(g.N()))
				res, err := c.SingleSource(ctx, u)
				if err != nil {
					errs[w] = err
					return
				}
				if res.Scores[u] != 1 {
					errs[w] = errors.New("self score != 1")
					return
				}
				if _, err := c.TopK(ctx, u, 5); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// A pre-cancelled context must fail promptly with context.Canceled, before
// any push stage runs.
func TestClientPreCancelled(t *testing.T) {
	g, err := SyntheticWebGraph(2000, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := c.SingleSource(ctx, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("result returned despite cancellation")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled query took %v", elapsed)
	}
	// Batches propagate the caller's cancellation too.
	if _, err := c.BatchSingleSource(ctx, []int32{1, 2, 3}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	// The client stays usable after an aborted query.
	if _, err := c.SingleSource(context.Background(), 100); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// An already-expired deadline must surface context.DeadlineExceeded, and a
// deadline expiring mid-query must interrupt the stages rather than let
// the query run to completion.
func TestClientDeadlineExceeded(t *testing.T) {
	g, err := SyntheticWebGraph(2000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Expired before the query starts.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.SingleSource(ctx, 7); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// Expiring mid-query: a fine-precision query on a larger graph takes
	// far longer than the deadline, so the stage-boundary checks must trip.
	big, err := SyntheticWebGraph(120000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewClient(big, Options{Epsilon: 0.002, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mctx, mcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer mcancel()
	start := time.Now()
	if _, err := cb.SingleSource(mctx, 11); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-query err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
	// The engine scratch survives the abort.
	res, err := cb.SingleSource(context.Background(), 11, WithEpsilon(0.05))
	if err != nil || res.Scores[11] != 1 {
		t.Fatalf("query after mid-flight abort: %v", err)
	}
}

// Per-query options change one query only and leave the client's defaults
// untouched.
func TestClientPerQueryOptions(t *testing.T) {
	g, err := SyntheticWebGraph(3000, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := c.SingleSource(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := c.SingleSource(ctx, 42, WithEpsilon(0.1), WithDelta(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Walks >= base.Walks {
		t.Fatalf("coarser epsilon did not shrink the walk sample: %d vs %d", coarse.Walks, base.Walks)
	}
	capped, err := c.SingleSource(ctx, 42, WithMaxWalks(10))
	if err != nil {
		t.Fatal(err)
	}
	if capped.Walks > 10 {
		t.Fatalf("WithMaxWalks(10) ignored: %d walks", capped.Walks)
	}
	// Defaults restored on the next plain query.
	again, err := c.SingleSource(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	if again.Walks != base.Walks {
		t.Fatalf("per-query override leaked: %d vs %d walks", again.Walks, base.Walks)
	}
	// WithSeed makes a query reproducible regardless of engine history.
	r1, err := c.SingleSource(ctx, 42, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.SingleSource(ctx, 42, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if r1.L != r2.L || len(r1.Attention) != len(r2.Attention) {
		t.Fatalf("WithSeed not deterministic: L %d vs %d", r1.L, r2.L)
	}
	for v := range r1.Scores {
		if r1.Scores[v] != r2.Scores[v] {
			t.Fatalf("WithSeed not deterministic at node %d", v)
		}
	}
	// Invalid override fails with the typed error.
	if _, err := c.SingleSource(ctx, 42, WithEpsilon(3)); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
}

// The error taxonomy must classify with errors.Is across the API surface.
func TestTypedErrors(t *testing.T) {
	g, err := FromEdges([]int32{0, 0}, []int32{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(g, Options{Epsilon: 5}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NewClient err = %v", err)
	}
	c, err := NewClient(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.SingleSource(ctx, 99); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("SingleSource err = %v", err)
	}
	if _, err := c.Pair(ctx, 1, 99); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("Pair err = %v", err)
	}
	if _, err := c.BatchSingleSource(ctx, []int32{0, 99}, 2); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("Batch err = %v", err)
	}
	if _, err := c.TopKAdaptive(ctx, 0, 0, 0, 0); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("TopKAdaptive err = %v", err)
	}
	if _, err := NewMethod("SimPush", g, 9, 1); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NewMethod err = %v", err)
	}
}

// Pair must reject an out-of-range target before running the single-source
// query (the validation is front-loaded; an invalid u is also caught).
func TestPairValidatesBeforeQuery(t *testing.T) {
	g, err := SyntheticWebGraph(2000, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// With a cancelled context the query itself could never run, so an
	// out-of-range target error proves validation happens first.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Pair(ctx, 5, 99999); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("err = %v, want ErrNodeOutOfRange before query", err)
	}
}

// A seeded query must not perturb the engine's own walk stream: an
// unseeded query sequence yields identical results whether or not a
// WithSeed query ran in between.
func TestWithSeedDoesNotPerturbStream(t *testing.T) {
	g, err := SyntheticWebGraph(3000, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(withSeeded bool) *Result {
		c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SingleSource(ctx, 10); err != nil {
			t.Fatal(err)
		}
		if withSeeded {
			if _, err := c.SingleSource(ctx, 10, WithSeed(7)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.SingleSource(ctx, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, interleaved := run(false), run(true)
	if plain.L != interleaved.L {
		t.Fatalf("seeded query perturbed the stream: L %d vs %d", plain.L, interleaved.L)
	}
	for v := range plain.Scores {
		if plain.Scores[v] != interleaved.Scores[v] {
			t.Fatalf("seeded query perturbed the stream at node %d", v)
		}
	}
}

// A single-goroutine stream stays reproducible across GC: the primary
// engine is pinned, so sync.Pool eviction cannot swap in a
// differently-seeded engine mid-stream.
func TestSingleGoroutineDeterministicAcrossGC(t *testing.T) {
	g, err := SyntheticWebGraph(2000, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(gcBetween bool) []*Result {
		c, err := NewClient(g, Options{Epsilon: 0.02, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var out []*Result
		for q := 0; q < 3; q++ {
			if gcBetween {
				runtime.GC()
				runtime.GC()
			}
			res, err := c.SingleSource(ctx, int32(q*11))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	a, b := run(false), run(true)
	for q := range a {
		if a[q].L != b[q].L {
			t.Fatalf("query %d: L %d vs %d after GC", q, a[q].L, b[q].L)
		}
		for v := range a[q].Scores {
			if a[q].Scores[v] != b[q].Scores[v] {
				t.Fatalf("query %d not deterministic across GC at node %d", q, v)
			}
		}
	}
}

// Client batches run over the shared pool and match v1 semantics.
func TestClientBatch(t *testing.T) {
	g, err := SyntheticWebGraph(2000, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries := []int32{0, 5, 1999, 5}
	results, err := c.BatchSingleSource(context.Background(), queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil || res.Scores[queries[i]] != 1 {
			t.Fatalf("bad result %d", i)
		}
	}
	// Back-to-back batches reuse the same pool without issue.
	if _, err := c.BatchSingleSource(context.Background(), queries, 2); err != nil {
		t.Fatal(err)
	}
}
