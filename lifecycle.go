package simpush

import (
	"errors"
)

// begin registers one top-level query call against the client lifecycle,
// failing fast with ErrClientClosed once Close has been called. Every
// successful begin must be paired with end.
func (c *Client) begin() error {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.closed {
		return ErrClientClosed
	}
	c.inflight.Add(1)
	c.stats.inFlight.Add(1)
	return nil
}

// end unregisters a query call and records its outcome.
func (c *Client) end(err error) {
	if err != nil && !errors.Is(err, ErrClientClosed) {
		c.stats.errors.Add(1)
	}
	c.stats.inFlight.Add(-1)
	c.inflight.Done()
}

// Close shuts the client down for serving: new queries fail immediately
// with ErrClientClosed, in-flight queries run to completion, and the
// engine pool is released once the last of them returns. Close blocks
// until the drain is complete, so when it returns no engine is running
// and the pooled scratch is collectable. Close is idempotent; repeated
// calls wait for the same drain and return nil.
//
// Close does not cancel in-flight queries — pass per-query contexts with
// deadlines to bound the drain. Non-query accessors (Graph, Epoch,
// Options, Source, Stats) keep working on a closed client.
func (c *Client) Close() error {
	c.closeMu.Lock()
	c.closed = true
	c.closeMu.Unlock()
	c.inflight.Wait()

	// No query is running and none can start, so the engine references can
	// be dropped without synchronization: the pinned primary, its free
	// slot, and every idle pooled engine become garbage now instead of
	// living as long as the Client value does.
	c.primary = nil
	c.primaryFree.Store(nil)
	c.pool.New = nil
	// Drain engines the pool still holds so they don't survive in the
	// pool's per-P caches.
	for c.pool.Get() != nil {
	}
	return nil
}

// ClientStats is a point-in-time snapshot of a client's query counters,
// the backing data of a serving layer's /metricsz counters. Counters are
// cumulative since NewClient.
type ClientStats struct {
	// Queries counts engine query executions. Batch items and adaptive
	// top-k rounds count individually — this is the number of times the
	// SimPush algorithm ran, not the number of API calls.
	Queries uint64
	// Errors counts top-level query calls that returned a non-nil error
	// (validation failures, snapshot errors, cancellations). Queries
	// rejected because the client is closed are not counted.
	Errors uint64
	// InFlight is the number of top-level query calls currently running.
	InFlight int64
}

// Stats returns the client's current counters. It is safe to call
// concurrently with queries and after Close.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Queries:  c.stats.queries.Load(),
		Errors:   c.stats.errors.Load(),
		InFlight: c.stats.inFlight.Load(),
	}
}
