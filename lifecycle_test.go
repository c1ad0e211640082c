package simpush

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestClientCloseFailsNewQueriesFast(t *testing.T) {
	g, err := SyntheticWebGraph(500, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.View(context.Background()) // pinned before close
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, err := c.SingleSource(ctx, 1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("SingleSource after close: %v", err)
	}
	if _, err := c.TopK(ctx, 1, 5); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("TopK after close: %v", err)
	}
	if _, err := c.Pair(ctx, 1, 2); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Pair after close: %v", err)
	}
	if _, err := c.BatchSingleSource(ctx, []int32{1, 2}, 2); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("BatchSingleSource after close: %v", err)
	}
	if _, err := c.TopKAdaptive(ctx, 1, 5, 0, 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("TopKAdaptive after close: %v", err)
	}
	// Queries through a view taken before the close fail the same way.
	if _, err := v.SingleSource(ctx, 1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("View.SingleSource after close: %v", err)
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Non-query accessors keep working.
	if c.Graph() == nil {
		t.Fatal("Graph() nil after close")
	}
	if got := c.Stats(); got.InFlight != 0 {
		t.Fatalf("InFlight after close = %d", got.InFlight)
	}
}

// TestClientCloseDrainsInFlight: Close must wait for a running query, not
// interrupt it.
func TestClientCloseDrainsInFlight(t *testing.T) {
	g, err := SyntheticWebGraph(3000, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	started := make(chan struct{})
	queryDone := make(chan outcome, 1)
	go func() {
		close(started)
		res, err := c.SingleSource(context.Background(), 7)
		queryDone <- outcome{res, err}
	}()
	<-started
	// Wait until the query registers as in-flight (or finishes on a fast
	// machine — then Close trivially drains).
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().InFlight == 0 && c.Stats().Queries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Close returned, so the query must already be complete. The query
	// goroutine sends its outcome only after SingleSource returns, which
	// is after Close's wait was released, so completion is read from the
	// in-flight count; the outcome then arrives in bounded time.
	if n := c.Stats().InFlight; n != 0 {
		t.Fatalf("Close returned with %d queries in flight", n)
	}
	// A drain never cancels work it waited for: the query succeeded.
	select {
	case out := <-queryDone:
		if out.err != nil {
			t.Fatalf("in-flight query failed during close: %v", out.err)
		}
		if out.res.Scores[7] != 1 {
			t.Fatal("in-flight query returned a corrupt result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the drained query never delivered its outcome")
	}
}

func TestClientStatsCounters(t *testing.T) {
	g, err := SyntheticWebGraph(600, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if st := c.Stats(); st.Queries != 0 || st.Errors != 0 || st.InFlight != 0 {
		t.Fatalf("fresh client stats = %+v", st)
	}
	if _, err := c.SingleSource(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Queries != 1 {
		t.Fatalf("after one query: %+v", st)
	}
	if _, err := c.BatchSingleSource(ctx, []int32{1, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Queries != 4 {
		t.Fatalf("batch items must count individually: %+v", st)
	}
	if _, err := c.SingleSource(ctx, 99999); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Fatalf("failed query not counted: %+v", st)
	}
	if st := c.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight not back to zero: %+v", st)
	}
}
