// Fixture for the epochkey analyzer: cache keys must flow from an
// epoch-bearing value, and score-shaped caches must not appear outside
// internal/cache.
package fixture

import (
	"context"

	"github.com/simrank/simpush/internal/cache"
)

type view struct{ e uint64 }

func (v view) Epoch() uint64 { return v.e }

func compute(context.Context) (any, error) { return nil, nil }

// True positive: the key literal never sets Epoch, so every epoch shares
// one entry and the first mutation starts serving stale scores.
func missingEpochField(ctx context.Context, c *cache.Cache, u int32) {
	key := cache.Key{Kind: "single-source", Node: u} // want "does not flow from an epoch-bearing value"
	c.Do(ctx, key, compute)
}

// True positive: Epoch is set, but from nothing epoch-bearing.
func hardcodedEpoch(ctx context.Context, c *cache.Cache, u int32) (any, cache.Outcome, error) {
	return c.Do(ctx, cache.Key{Epoch: 0, Kind: "topk", Node: u}, compute) // want "does not flow from an epoch-bearing value"
}

// True positive: an inline key literal with no Epoch field.
func doWithoutEpoch(ctx context.Context, c *cache.Cache, u int32) {
	c.Do(ctx, cache.Key{Kind: "pair", Node: u}, func(context.Context) (any, error) { // want "does not flow from an epoch-bearing value"
		return nil, nil
	})
}

// Correct negative: the key flows from view.Epoch().
func epochFromView(ctx context.Context, c *cache.Cache, v view, u int32) {
	key := cache.Key{Epoch: v.Epoch(), Kind: "pair", Node: u}
	c.Do(ctx, key, compute)
}

// Correct negative: the key flows from an epoch-named variable.
func epochFromParam(ctx context.Context, c *cache.Cache, epoch uint64, u int32) (any, cache.Outcome, error) {
	return c.Do(ctx, cache.Key{Epoch: epoch, Kind: "single-source", Node: u}, compute)
}

// Correct negative: a prebuilt key parameter is the caller's
// responsibility — its construction site is checked where it occurs.
func doPrebuilt(ctx context.Context, c *cache.Cache, key cache.Key) {
	c.Do(ctx, key, compute)
}

// True positive: a score-shaped map announcing caching intent, outside
// the epoch-keyed cache.
type engine struct {
	scoreCache map[int32]float64 // want "score map .scoreCache. outside internal/cache"
	scratch    []float64         // plain scratch is fine
}

// True positive: package-level memo of score slices.
var resultMemo = map[string][]float64{} // want "score map .resultMemo. outside internal/cache"

// Correct negative: an accumulator map is not a cache — nothing in the
// name claims results outlive the computation.
func accumulate(n int) map[int32]float64 {
	acc := map[int32]float64{}
	for i := 0; i < n; i++ {
		acc[int32(i)] += 1
	}
	return acc
}

// Correct negative: cache-named, but holds no scores.
var statusCache = map[string]string{}

// True positive: re-keying a stored key's epoch outside the audited
// CarryForward path re-labels a result as computed on a graph state it
// never saw.
func rekeyEpoch(key *cache.Key, epoch uint64) {
	key.Epoch = epoch // want "re-keying a cache entry's epoch outside internal/cache"
}

// True positive: value receivers are no safer — the copy is usually
// stored right back under the new epoch.
func rekeyEpochCopy(key cache.Key) cache.Key {
	key.Epoch = key.Epoch + 1 // want "re-keying a cache entry's epoch outside internal/cache"
	return key
}

// Correct negative: assigning any other key field is retargeting, not
// epoch re-labeling.
func retarget(key *cache.Key, u int32) {
	key.Node = u
}

// Correct negative: setting Epoch on an unrelated type is not a cache
// re-key.
type notAKey struct{ Epoch uint64 }

func bumpOther(k *notAKey) {
	k.Epoch = 7
}
