package simpush

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/simrank/simpush/internal/core"
	"github.com/simrank/simpush/internal/eval"
)

// Typed error taxonomy of the query API. Every validation failure returned
// by this package wraps one of these sentinels; classify with errors.Is
// rather than matching message text.
var (
	// ErrNodeOutOfRange reports a query or target node id outside [0, n).
	ErrNodeOutOfRange = core.ErrNodeOutOfRange
	// ErrInvalidOptions reports out-of-domain engine options or per-query
	// overrides (ε, δ or c outside (0,1) or non-finite, an ε too small
	// for the level-detection sample, k < 0, …).
	ErrInvalidOptions = core.ErrInvalidOptions
	// ErrClientClosed reports a query issued after Client.Close. Closed
	// clients fail fast instead of touching the engine pool, so a serving
	// layer can drain gracefully: stop admitting, let in-flight queries
	// finish, then Close.
	ErrClientClosed = errors.New("simpush: client closed")
)

// A QueryOption overrides one engine parameter for a single query. The
// derived quantities (ε_h, L*, walk counts) are recomputed from the merged
// options per query; the engine scratch is sized to the graph and is
// reused unchanged, so per-query options cost no allocation.
type QueryOption func(*core.QueryOpts)

// WithEpsilon overrides the absolute error bound ε for one query.
func WithEpsilon(eps float64) QueryOption {
	return func(q *core.QueryOpts) { q.Epsilon = eps }
}

// WithDelta overrides the failure probability δ for one query.
func WithDelta(delta float64) QueryOption {
	return func(q *core.QueryOpts) { q.Delta = delta }
}

// WithSeed reseeds the level-detection walk stream at the start of one
// query, making its result deterministic in (graph, options, seed) alone —
// independent of which pooled engine serves it or what ran before.
func WithSeed(seed uint64) QueryOption {
	return func(q *core.QueryOpts) { q.Seed = seed; q.HasSeed = true }
}

// WithMaxWalks overrides the cap on level-detection walk samples for one
// query (0 removes the cap; a negative n is invalid). Capping voids the δ
// guarantee, and a cap does not admit an ε whose uncapped walk count is
// over the limit.
func WithMaxWalks(n int) QueryOption {
	return func(q *core.QueryOpts) { q.MaxWalks = n; q.HasMaxWalks = true }
}

func buildQueryOpts(opts []QueryOption) core.QueryOpts {
	var qo core.QueryOpts
	for _, o := range opts {
		o(&qo)
	}
	return qo
}

// Client is the concurrency-safe entry point for SimRank queries: one
// Client per graph source serves any number of goroutines. It owns a
// sync.Pool of per-worker core engines, so concurrent queries never share
// scratch and sequential queries reuse it — there is no per-query engine
// construction.
//
// A Client is bound to a GraphSource, not to one frozen graph. At the
// start of every query it takes the source's current snapshot and rebinds
// the checked-out engine to it in place (reusing the engine's O(n)
// scratch), so a Client over a *DynamicGraph always answers on the newest
// committed edges with no caller-side snapshotting and no Client rebuild —
// the serving half of the paper's index-free claim. Over a static *Graph
// this reduces to the fixed-graph behavior. Multi-call workflows that need
// one consistent state across several queries pin it with View.
//
// All query methods take a context; cancellation and deadlines are
// honored inside the algorithm stages (between walk batches, Source-Push
// levels, γ computations and Reverse-Push sweeps), so a slow query is
// interrupted mid-flight and returns ctx.Err().
//
// Determinism: each pooled engine carries a decorrelated walk stream, and
// which engine serves a concurrent query depends on scheduling. For
// reproducible single queries pass WithSeed (seeded queries run in a
// bounded seed scope and never perturb other streams). A single-goroutine
// stream always runs on the client's pinned primary engine, so it is
// reproducible in (snapshot sequence, options, query order) exactly like
// a v1 Engine.
type Client struct {
	src GraphSource
	opt Options

	// cur is the highest-epoch snapshot successfully observed from the
	// source (advanced epoch-forward-only by snapshot(), never by
	// pinned-view queries, so it cannot regress to a stale pin or to a
	// racing older observation); pool.New constructs overflow engines
	// against it so their scratch is born at the right size (acquire
	// rebinds them anyway), and Graph() falls back to it when the source
	// cannot materialize.
	cur atomic.Pointer[observedSnap]

	// primary is the engine carrying the client's base seed. It is pinned
	// for the client's lifetime (a sync.Pool may drop idle entries at any
	// GC, which would silently swap in a differently-seeded engine), so a
	// single-goroutine query stream is reproducible exactly like a v1
	// Engine. primaryFree hands it out to at most one query at a time.
	primary     *core.SimPush
	primaryFree atomic.Pointer[core.SimPush]

	pool sync.Pool // overflow engines beyond the primary: *core.SimPush
	seq  atomic.Uint64

	// Lifecycle: closeMu orders the closed flag against in-flight
	// registration so Close never misses a racing query; inflight counts
	// running top-level query calls and lets Close drain them.
	closeMu  sync.RWMutex
	closed   bool
	inflight sync.WaitGroup

	stats clientCounters
}

// clientCounters is the always-on instrumentation behind Client.Stats.
// Counters are atomics: queries touch them on the hot path and /metricsz
// readers must not contend with them.
type clientCounters struct {
	queries  atomic.Uint64 // engine query executions
	errors   atomic.Uint64 // top-level query calls that returned an error
	inFlight atomic.Int64  // top-level query calls currently running
}

// NewClient validates opt and returns a Client bound to src. Both *Graph
// (static) and *DynamicGraph (live, versioned) are graph sources, so
// existing NewClient(g, opt) calls keep working unchanged. Construction is
// index-free: it takes one snapshot, allocates one engine's O(n) scratch
// and nothing else.
func NewClient(src GraphSource, opt Options) (*Client, error) {
	c := &Client{src: src, opt: opt}
	g, _, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	first, err := core.New(g, c.workerOptions(0))
	if err != nil {
		return nil, err
	}
	c.primary = first
	c.primaryFree.Store(first)
	c.pool.New = func() any {
		eng, err := core.New(c.cur.Load().g, c.workerOptions(c.seq.Add(1)))
		if err != nil {
			// Options were validated at NewClient, so this is effectively
			// unreachable — but if it ever fires, hand the real error to
			// acquire instead of a nil that would masquerade as something
			// else.
			return err
		}
		return eng
	}
	return c, nil
}

// workerOptions decorrelates the walk streams of pooled engines while
// keeping them deterministic in the client seed.
func (c *Client) workerOptions(worker uint64) Options {
	opt := c.opt
	opt.Seed += worker * 0x9e3779b97f4a7c15
	return opt
}

// observedSnap pairs a successfully observed snapshot with its epoch, so
// cur can be advanced forward-only under racing observations.
type observedSnap struct {
	g     *Graph
	epoch uint64
}

// snapshot observes the source's current committed state and remembers it
// as the client's freshest known graph.
func (c *Client) snapshot() (*Graph, uint64, error) {
	g, epoch, err := c.src.GraphSnapshot()
	if err != nil {
		return nil, 0, fmt.Errorf("simpush: graph snapshot: %w", err)
	}
	if g == nil {
		return nil, 0, fmt.Errorf("simpush: %w: graph source returned a nil snapshot", ErrInvalidOptions)
	}
	// Advance cur only forward: a descheduled older observation must not
	// overwrite a newer one another goroutine already recorded.
	next := &observedSnap{g: g, epoch: epoch}
	for {
		old := c.cur.Load()
		if old != nil && old.epoch >= epoch {
			break
		}
		if c.cur.CompareAndSwap(old, next) {
			break
		}
	}
	return g, epoch, nil
}

// acquireAt checks an engine out and rebinds it to the given snapshot —
// the pinned primary when it is free (keeping sequential streams on one
// deterministic engine), otherwise an overflow engine from the pool;
// release must be called when the query is done.
func (c *Client) acquireAt(g *Graph) (*core.SimPush, error) {
	if eng := c.primaryFree.Swap(nil); eng != nil {
		eng.Rebind(g)
		return eng, nil
	}
	switch v := c.pool.Get().(type) {
	case *core.SimPush:
		v.Rebind(g)
		return v, nil
	case error:
		return nil, fmt.Errorf("simpush: pooled engine construction: %w", v)
	default:
		return nil, fmt.Errorf("simpush: pooled engine construction returned %T", v)
	}
}

func (c *Client) release(eng *core.SimPush) {
	// Park the engine on the freshest observed snapshot so an idle engine
	// never keeps a superseded O(n+m) graph alive between queries (the
	// engine is still exclusively owned here; acquire rebinds again
	// anyway).
	eng.Rebind(c.cur.Load().g)
	if eng == c.primary {
		c.primaryFree.Store(eng)
		return
	}
	c.pool.Put(eng)
}

// Source returns the graph source the client serves.
func (c *Client) Source() GraphSource { return c.src }

// Graph returns the source's current snapshot. If the source cannot
// materialize one (e.g. a pending deletion of a nonexistent edge), the
// most recent successfully observed snapshot is returned instead; query
// methods surface such errors. For a static source this is always the
// graph the client was built on.
func (c *Client) Graph() *Graph {
	if g, _, err := c.snapshot(); err == nil {
		return g
	}
	return c.cur.Load().g
}

// Epoch returns the epoch of the source's current committed state (0 for
// a static source). Like any unpinned observation it may be stale by the
// time it returns; use View for an epoch that stays attached to a graph.
func (c *Client) Epoch() (uint64, error) {
	_, epoch, err := c.snapshot()
	return epoch, err
}

// Options returns the engine-level options the client was built with.
func (c *Client) Options() Options { return c.opt }

// SingleSource estimates s(u, v) for every v, with |s−s̃| ≤ ε holding for
// every v with probability at least 1−δ (Theorem 1 of the paper). The
// query runs on the source's newest committed snapshot.
func (c *Client) SingleSource(ctx context.Context, u int32, opts ...QueryOption) (*Result, error) {
	g, _, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	return c.singleSourceOn(ctx, g, u, opts)
}

func (c *Client) singleSourceOn(ctx context.Context, g *Graph, u int32, opts []QueryOption) (res *Result, err error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer func() { c.end(err) }()
	eng, err := c.acquireAt(g)
	if err != nil {
		return nil, err
	}
	defer c.release(eng)
	c.stats.queries.Add(1)
	return eng.QueryCtx(ctx, u, buildQueryOpts(opts))
}

// TopK runs a single-source query and returns the k most similar nodes
// (excluding u itself) in descending score order, ties broken by node id.
// k is clamped to the candidate count; k <= 0 yields an empty result.
func (c *Client) TopK(ctx context.Context, u int32, k int, opts ...QueryOption) ([]Ranked, error) {
	res, err := c.SingleSource(ctx, u, opts...)
	if err != nil {
		return nil, err
	}
	ids := eval.TopK(res.Scores, k, u)
	return rankedFrom(res.Scores, ids, k), nil
}

// Pair estimates the single SimRank value s(u, v). It runs a full
// single-source query from u (SimPush has no cheaper primitive — the
// paper's problem is inherently one-to-all) and reads off v, so prefer
// SingleSource when several targets share a source node. Both endpoints
// are validated against the same snapshot the query runs on.
func (c *Client) Pair(ctx context.Context, u, v int32, opts ...QueryOption) (float64, error) {
	g, _, err := c.snapshot()
	if err != nil {
		return 0, err
	}
	return c.pairOn(ctx, g, u, v, opts)
}

func (c *Client) pairOn(ctx context.Context, g *Graph, u, v int32, opts []QueryOption) (float64, error) {
	if !g.HasNode(v) {
		return 0, fmt.Errorf("simpush: %w: target node %d not in [0, %d)", ErrNodeOutOfRange, v, g.N())
	}
	res, err := c.singleSourceOn(ctx, g, u, opts)
	if err != nil {
		return 0, err
	}
	return res.Scores[v], nil
}

// BatchSingleSource answers many single-source queries concurrently over
// the client's engine pool; results[i] corresponds to queries[i]. The
// whole batch is pinned to one snapshot — every query in it observes the
// same committed graph state even while the source keeps mutating.
// Workers check engines out of the shared pool, so back-to-back batches
// reuse the same scratch. A failed or cancelled query cancels the rest of
// the batch.
//
// parallelism <= 0 selects GOMAXPROCS workers.
func (c *Client) BatchSingleSource(ctx context.Context, queries []int32, parallelism int, opts ...QueryOption) ([]*Result, error) {
	g, _, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	return c.batchSingleSourceOn(ctx, g, queries, parallelism, opts)
}

func (c *Client) batchSingleSourceOn(ctx context.Context, g *Graph, queries []int32, parallelism int, opts []QueryOption) (_ []*Result, err error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer func() { c.end(err) }()
	qo := buildQueryOpts(opts)
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	if parallelism < 1 {
		parallelism = 1
	}
	for _, u := range queries {
		if !g.HasNode(u) {
			return nil, fmt.Errorf("simpush: %w: query node %d not in [0, %d)", ErrNodeOutOfRange, u, g.N())
		}
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*Result, len(queries))
	errs := make([]error, parallelism)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng, err := c.acquireAt(g)
			if err != nil {
				errs[w] = err
				cancel()
				return
			}
			defer c.release(eng)
			for {
				i := next.Add(1) - 1
				if int(i) >= len(queries) {
					return
				}
				c.stats.queries.Add(1)
				res, err := eng.QueryCtx(bctx, queries[i], qo)
				if err != nil {
					errs[w] = err
					cancel()
					return
				}
				results[i] = res
			}
		}(w)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		// Workers that lost the race see the derived context cancelled;
		// report the root cause instead.
		if !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		// Prefer the caller's own cancellation over the derived one.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, firstErr
	}
	return results, nil
}
