package simpush

import (
	"context"
	"fmt"

	"github.com/simrank/simpush/internal/eval"
)

// AdaptiveTopK is the result of an adaptive top-k search: the ranked
// answer, the precision it was accepted at, and how many query rounds ran.
type AdaptiveTopK struct {
	Results []Ranked
	Epsilon float64 // accepted precision
	Rounds  int     // number of queries executed
}

// TopKAdaptive answers a top-k single-source query with automatic
// precision selection: it starts from a coarse error bound and halves it
// until the top-k set is provably stable — every returned node's score
// exceeds the (k+1)-th score by more than twice the current bound, or the
// floor epsilon is reached. For top-k workloads this is typically several
// times faster than always querying at the finest setting.
//
// All rounds run on a single pooled engine via per-query ε overrides, so
// the search reuses one set of scratch instead of building an engine per
// round — and the whole search is pinned to one snapshot, so the 2ε
// stability certificate always speaks about a single committed graph
// state even while the source keeps mutating. startEps and floorEps bound
// the search (defaults 0.08 and 0.002 when zero); other QueryOption values
// apply to every round, except that WithEpsilon is overridden by the
// round's ε.
func (c *Client) TopKAdaptive(ctx context.Context, u int32, k int, startEps, floorEps float64, opts ...QueryOption) (*AdaptiveTopK, error) {
	g, _, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	return c.topKAdaptiveOn(ctx, g, u, k, startEps, floorEps, opts)
}

func (c *Client) topKAdaptiveOn(ctx context.Context, g *Graph, u int32, k int, startEps, floorEps float64, opts []QueryOption) (_ *AdaptiveTopK, err error) {
	if k < 1 {
		return nil, fmt.Errorf("simpush: %w: k must be >= 1, got %d", ErrInvalidOptions, k)
	}
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer func() { c.end(err) }()
	if startEps == 0 {
		startEps = 0.08
	}
	if floorEps == 0 {
		floorEps = 0.002
	}
	if startEps < floorEps {
		startEps = floorEps
	}
	eng, err := c.acquireAt(g)
	if err != nil {
		return nil, err
	}
	defer c.release(eng)

	base := buildQueryOpts(opts)
	out := &AdaptiveTopK{}
	for eps := startEps; ; eps /= 2 {
		qo := base
		qo.Epsilon = eps
		c.stats.queries.Add(1)
		res, err := eng.QueryCtx(ctx, u, qo)
		if err != nil {
			return nil, err
		}
		out.Rounds++
		out.Epsilon = eps
		ids := eval.TopK(res.Scores, k+1, u)
		out.Results = rankedFrom(res.Scores, ids, k)
		if eps <= floorEps {
			return out, nil
		}
		if stableTopK(res.Scores, ids, k, eps) {
			return out, nil
		}
	}
}

// stableTopK reports whether the gap between the k-th and (k+1)-th scores
// exceeds 2ε: since every estimate is within ε of the truth (one-sided
// underestimates within ε, no overestimate), a 2ε gap certifies the set.
func stableTopK(scores []float64, ids []int32, k int, eps float64) bool {
	if len(ids) <= k {
		return true // fewer than k+1 candidates exist at all
	}
	kth := scores[ids[k-1]]
	next := scores[ids[k]]
	return kth-next > 2*eps
}

// rankedFrom materializes Ranked entries for at most k of the given ids;
// k <= 0 yields an empty slice.
func rankedFrom(scores []float64, ids []int32, k int) []Ranked {
	if k < 0 {
		k = 0
	}
	if len(ids) > k {
		ids = ids[:k]
	}
	out := make([]Ranked, len(ids))
	for i, v := range ids {
		out[i] = Ranked{Node: v, Score: scores[v]}
	}
	return out
}
