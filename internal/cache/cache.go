// Package cache is the serving-side result cache of simrankd: a bounded,
// sharded, epoch-aware map with single-flight coalescing.
//
// Epoch awareness is structural, not event-driven: the graph epoch is part
// of the key, so a result computed on epoch e can only ever be returned to
// a request that pinned epoch e. When the source advances, entries for
// superseded epochs simply stop being reachable — correctness never
// depends on an invalidation message arriving, which is what keeps the
// design index-free in spirit: there is nothing to maintain, only garbage
// to reclaim (LRU pressure or an explicit Sweep).
//
// Single-flight coalescing recovers the other half of repeated-query work:
// N concurrent identical queries on one epoch run the underlying engine
// once, and the result fans out to every waiter.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// A Key identifies one cacheable result: the graph epoch the result was
// computed on, the query kind, the source node, a kind-specific auxiliary
// dimension (top-k's k, pair's target node), and the canonical encoding of
// the per-query parameters.
type Key struct {
	Epoch  uint64
	Kind   string
	Node   int32
	Aux    int64
	Params string
}

func (k Key) String() string {
	return fmt.Sprintf("%s@%d(%d,%d)%s", k.Kind, k.Epoch, k.Node, k.Aux, k.Params)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash is FNV-1a over the key fields; it picks the shard.
func (k Key) hash() uint64 {
	h := uint64(fnvOffset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime
			x >>= 8
		}
	}
	// Epoch is deliberately NOT mixed in: CarryForward re-keys entries
	// from epoch e to e+1 in place, and leaving the epoch out of the hash
	// pins a key to one shard across epochs, so re-keying never has to
	// move an entry between shards (each shard carries forward
	// independently under its own lock). Epoch remains part of the map
	// key, so correctness — a result is only returned to a request that
	// pinned its epoch — is untouched; only shard placement ignores it.
	mix(uint64(uint32(k.Node)))
	mix(uint64(k.Aux))
	for i := 0; i < len(k.Kind); i++ {
		h ^= uint64(k.Kind[i])
		h *= fnvPrime
	}
	for i := 0; i < len(k.Params); i++ {
		h ^= uint64(k.Params[i])
		h *= fnvPrime
	}
	return h
}

// Outcome reports how a Do call obtained its value.
type Outcome int

const (
	// Computed: this caller ran the compute function.
	Computed Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Shared: an identical concurrent call was in flight; its result was
	// shared without running compute again.
	Shared
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "computed"
	}
}

// Cache is a bounded, sharded result cache with single-flight coalescing.
// All methods are safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	cap    int // max entries per shard; 0 disables storage (coalescing only)

	hits         atomic.Uint64
	misses       atomic.Uint64
	coalesced    atomic.Uint64
	evictions    atomic.Uint64
	carried      atomic.Uint64
	carryDropped atomic.Uint64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used; values are *entry
	flights map[Key]*flight
}

type entry struct {
	key Key
	val any
}

// flight is one in-progress computation; waiters block on done. waiters
// counts the callers interested in the result; when the last of them
// gives up, cancel stops the computation — work nobody is waiting for is
// abandoned instead of burning an engine to completion.
type flight struct {
	done    chan struct{}
	val     any
	err     error
	waiters atomic.Int64
	cancel  context.CancelFunc
}

// New returns a cache bounded to roughly maxEntries results (the bound is
// enforced per shard, so the worst-case total is maxEntries rounded up to
// a multiple of the shard count). maxEntries <= 0 disables storage
// entirely while keeping single-flight coalescing — concurrent identical
// queries still collapse to one engine run, but nothing is retained.
func New(maxEntries int) *Cache {
	nShards := 16
	for nShards > 1 && nShards*4 > maxEntries && maxEntries > 0 {
		nShards /= 2
	}
	if maxEntries <= 0 {
		nShards = 1
	}
	c := &Cache{
		shards: make([]shard, nShards),
		mask:   uint64(nShards - 1),
	}
	if maxEntries > 0 {
		c.cap = (maxEntries + nShards - 1) / nShards
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].flights = make(map[Key]*flight)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k.hash()&c.mask]
}

// put inserts with the shard lock held.
func (s *shard) put(c *Cache, k Key, v any) {
	if c.cap == 0 {
		return
	}
	if el, ok := s.entries[k]; ok {
		el.Value.(*entry).val = v
		s.lru.MoveToFront(el)
		return
	}
	s.entries[k] = s.lru.PushFront(&entry{key: k, val: v})
	if s.lru.Len() > c.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// Do returns the value for k: from the cache if present, by joining an
// identical in-flight computation if one is running, and otherwise by
// starting compute and caching its result. Errors are never cached.
//
// compute runs in its own goroutine under a context Do supplies, detached
// from any single caller: every caller — including the one that started
// the flight — waits under its own ctx, so one caller's disconnect or
// short deadline never fails the identical requests coalesced onto the
// flight. The flight context is cancelled only when the last interested
// caller has given up, abandoning work nobody wants; compute should apply
// its own ceiling (e.g. a server-side maximum timeout) on top. A caller
// that joined a flight cancelled by others' departure re-enters and
// computes for itself, so a live request never inherits a dead caller's
// context error.
func (c *Cache) Do(ctx context.Context, k Key, compute func(context.Context) (any, error)) (any, Outcome, error) {
	for {
		s := c.shardFor(k)
		s.mu.Lock()
		if el, ok := s.entries[k]; ok {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			c.hits.Add(1)
			return el.Value.(*entry).val, Hit, nil
		}
		if f, ok := s.flights[k]; ok {
			f.waiters.Add(1)
			s.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-f.done:
				if errors.Is(f.err, context.Canceled) && ctx.Err() == nil {
					// The flight died because every earlier caller left,
					// not because of anything wrong with this one: retry
					// (the flight is unregistered by now, so the next pass
					// becomes the leader).
					continue
				}
				return f.val, Shared, f.err
			case <-ctx.Done():
				if f.waiters.Add(-1) == 0 {
					f.cancel()
				}
				return nil, Shared, ctx.Err()
			}
		}
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		f := &flight{done: make(chan struct{}), cancel: cancel}
		f.waiters.Store(1)
		s.flights[k] = f
		s.mu.Unlock()
		c.misses.Add(1)

		go func() {
			completed := false
			defer func() {
				// Recover is load-bearing twice over: waiters must never
				// block forever on a flight whose compute died, and a panic
				// in this detached goroutine would otherwise kill the
				// process.
				if !completed {
					f.err = fmt.Errorf("cache: compute for %v panicked", k)
				}
				s.mu.Lock()
				delete(s.flights, k)
				if f.err == nil {
					s.put(c, k, f.val)
				}
				s.mu.Unlock()
				close(f.done)
				cancel()
				if !completed {
					recover()
				}
			}()
			f.val, f.err = compute(fctx)
			completed = true
		}()

		select {
		case <-f.done:
			return f.val, Computed, f.err
		case <-ctx.Done():
			if f.waiters.Add(-1) == 0 {
				f.cancel()
			}
			return nil, Computed, ctx.Err()
		}
	}
}

// Delta is the cache-facing view of one committed epoch advance: entries
// keyed at FromEpoch are candidates to survive as ToEpoch entries. The
// cache knows nothing about graphs or affected sets — the caller encodes
// that judgment in the keep callback passed to CarryForward.
type Delta struct {
	FromEpoch uint64
	ToEpoch   uint64
}

// CarryForward re-keys every entry from d.FromEpoch to d.ToEpoch for
// which keep returns true, and drops the rest of the FromEpoch entries.
// Entries at other epochs are untouched (a later Sweep reclaims them).
// It returns the number of entries carried.
//
// keep is called with the entry's key while the shard lock is held: it
// must be fast, must not call back into the cache, and must return true
// only if the value is guaranteed bit-identical to a fresh computation at
// d.ToEpoch (the caller's affected-set judgment). A nil keep carries
// nothing (every FromEpoch entry is dropped).
//
// The work is O(stored entries) per call and allocation-free on the
// payloads: re-keying rewrites the entry's key in place and moves the
// map pointer — the cached result itself is never copied. If a fresh
// ToEpoch entry already exists under the target key (a query raced ahead
// and computed at the new epoch), the fresh entry wins and the stale
// candidate is dropped.
func (c *Cache) CarryForward(d Delta, keep func(Key) bool) int {
	carried := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*entry)
			if e.key.Epoch == d.FromEpoch {
				nk := e.key
				nk.Epoch = d.ToEpoch
				_, taken := s.entries[nk]
				if !taken && keep != nil && keep(e.key) {
					delete(s.entries, e.key)
					e.key = nk // same hash (epoch is not mixed in): stays in this shard
					s.entries[nk] = el
					carried++
				} else {
					s.lru.Remove(el)
					delete(s.entries, e.key)
					c.carryDropped.Add(1)
				}
			}
			el = next
		}
		s.mu.Unlock()
	}
	if carried > 0 {
		c.carried.Add(uint64(carried))
	}
	return carried
}

// Sweep drops every stored entry whose epoch differs from current and
// returns how many were removed. Entries from superseded epochs are
// already unreachable (the epoch is in the key), so Sweep is purely a
// memory-hygiene accelerant for sources that mutate faster than LRU
// pressure would recycle their shards.
func (c *Cache) Sweep(current uint64) int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*entry)
			if e.key.Epoch != current {
				s.lru.Remove(el)
				delete(s.entries, e.key)
				removed++
			}
			el = next
		}
		s.mu.Unlock()
	}
	if removed > 0 {
		c.evictions.Add(uint64(removed))
	}
	return removed
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	// Carried counts entries re-keyed to a new epoch by CarryForward;
	// CarryDropped counts the candidates it refused (affected by the
	// mutation, raced by a fresh entry, or a Total-fallback delta).
	Carried      uint64 `json:"carried"`
	CarryDropped uint64 `json:"carry_dropped"`
	Entries      int    `json:"entries"`
	// Flights counts computations in progress.
	Flights int `json:"flights"`
}

// Stats returns current counters and the live entry and flight counts.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Evictions:    c.evictions.Load(),
		Carried:      c.carried.Load(),
		CarryDropped: c.carryDropped.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		st.Flights += len(s.flights)
		s.mu.Unlock()
	}
	return st
}
