package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(epoch uint64, node int32) Key {
	return Key{Epoch: epoch, Kind: "single-source", Node: node, Params: "eps=0.02"}
}

// put seeds v under k through Do.
func put(t *testing.T, c *Cache, k Key, v any) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), k, func(context.Context) (any, error) { return v, nil }); err != nil {
		t.Fatal(err)
	}
}

// errAbsent is get's compute result: Do never caches an error, so a probe
// that misses stores nothing.
var errAbsent = errors.New("absent")

// get probes k through Do and reports whether it was a hit.
func get(c *Cache, k Key) (any, bool) {
	v, out, err := c.Do(context.Background(), k, func(context.Context) (any, error) { return nil, errAbsent })
	return v, err == nil && out == Hit
}

func TestGetPutAndEpochKeying(t *testing.T) {
	c := New(64)
	k0 := key(0, 42)
	k1 := key(1, 42) // same query, newer epoch: a distinct entry

	if _, ok := get(c, k0); ok {
		t.Fatal("empty cache reported a hit")
	}
	put(t, c, k0, "old")
	put(t, c, k1, "new")
	if v, ok := get(c, k0); !ok || v != "old" {
		t.Fatalf("Get(k0) = %v, %v", v, ok)
	}
	if v, ok := get(c, k1); !ok || v != "new" {
		t.Fatalf("Get(k1) = %v, %v", v, ok)
	}
	// A request pinned to epoch 2 can never see either value: the epoch is
	// part of the key, so stale results are structurally unreachable.
	if _, ok := get(c, key(2, 42)); ok {
		t.Fatal("entry from a superseded epoch was reachable at a newer epoch")
	}
}

func TestBoundAndEviction(t *testing.T) {
	const bound = 32
	c := New(bound)
	for i := int32(0); i < 10*bound; i++ {
		put(t, c, key(0, i), i)
	}
	st := c.Stats()
	// The bound is enforced per shard; the total never exceeds the
	// requested size rounded up to a shard multiple.
	if st.Entries > 2*bound {
		t.Fatalf("cache holds %d entries, bound %d", st.Entries, bound)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

func TestLRUKeepsRecentlyUsed(t *testing.T) {
	c := New(4) // small: collapses to one shard of 4
	if len(c.shards) != 1 {
		t.Fatalf("expected 1 shard for tiny cache, got %d", len(c.shards))
	}
	for i := int32(0); i < 4; i++ {
		put(t, c, key(0, i), i)
	}
	get(c, key(0, 0)) // refresh node 0
	put(t, c, key(0, 99), 99)
	if _, ok := get(c, key(0, 0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := get(c, key(0, 1)); ok {
		t.Fatal("least recently used entry survived eviction")
	}
}

func TestDoSingleFlight(t *testing.T) {
	c := New(16)
	const n = 8
	var computes atomic.Int32
	arrived := make(chan struct{}, n)
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), key(3, 7), func(context.Context) (any, error) {
				computes.Add(1)
				arrived <- struct{}{}
				<-release // hold the flight open so others must coalesce
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	<-arrived // leader is inside compute
	// Give followers a moment to reach the flight wait, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times for %d concurrent identical calls", got, n)
	}
	computed := 0
	for i := 0; i < n; i++ {
		if results[i] != "value" {
			t.Fatalf("caller %d got %v", i, results[i])
		}
		if outcomes[i] == Computed {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d callers report Computed, want exactly 1", computed)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(16)
	boom := errors.New("boom")
	calls := 0
	compute := func(context.Context) (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do(context.Background(), key(0, 1), compute); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v", err)
	}
	v, out, err := c.Do(context.Background(), key(0, 1), compute)
	if err != nil || v != "ok" || out != Computed {
		t.Fatalf("second Do = %v, %v, %v — the error must not have been cached", v, out, err)
	}
}

func TestDoWaiterHonorsContext(t *testing.T) {
	c := New(16)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), key(0, 5), func(context.Context) (any, error) {
		close(inFlight)
		<-release
		return "late", nil
	})
	<-inFlight

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, key(0, 5), func(context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
}

func TestDoLeaderPanicReleasesWaiters(t *testing.T) {
	c := New(16)
	inFlight := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), key(0, 9), func(context.Context) (any, error) {
			close(inFlight)
			panic("leader died")
		})
	}()
	<-inFlight
	// The waiter must be released with an error, not blocked forever; and
	// nothing must be cached, so a retry recomputes.
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), key(0, 9), func(context.Context) (any, error) { return "retry", nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			// The waiter may have joined the doomed flight (shared error) or
			// recomputed cleanly; either way it must terminate. A retry after
			// a shared error must succeed.
			v, _, err2 := c.Do(context.Background(), key(0, 9), func(context.Context) (any, error) { return "retry", nil })
			if err2 != nil || v != "retry" {
				t.Fatalf("retry after leader panic = %v, %v", v, err2)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter blocked forever after leader panic")
	}
}

func TestDisabledCacheStillCoalesces(t *testing.T) {
	c := New(0)
	v, out, err := c.Do(context.Background(), key(0, 1), func(context.Context) (any, error) { return "x", nil })
	if err != nil || v != "x" || out != Computed {
		t.Fatalf("Do on disabled cache = %v, %v, %v", v, out, err)
	}
	// Nothing is stored...
	if _, ok := get(c, key(0, 1)); ok {
		t.Fatal("disabled cache stored an entry")
	}
	// ...but concurrent identical calls still collapse to one compute.
	var computes atomic.Int32
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), key(0, 2), func(context.Context) (any, error) {
			computes.Add(1)
			close(inFlight)
			<-release
			return "y", nil
		})
	}()
	<-inFlight
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), key(0, 2), func(context.Context) (any, error) {
			computes.Add(1)
			return "y", nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
}

func TestSweep(t *testing.T) {
	c := New(128)
	for i := int32(0); i < 20; i++ {
		put(t, c, key(1, i), i)
		put(t, c, key(2, i), i)
	}
	removed := c.Sweep(2)
	if removed != 20 {
		t.Fatalf("Sweep removed %d, want 20", removed)
	}
	st := c.Stats()
	if st.Entries != 20 {
		t.Fatalf("entries after sweep = %d, want 20", st.Entries)
	}
	if _, ok := get(c, key(2, 3)); !ok {
		t.Fatal("current-epoch entry removed by sweep")
	}
}

// TestConcurrentMixed hammers every operation from many goroutines; its
// value is under -race.
func TestConcurrentMixed(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(uint64(i%3), int32(i%40))
				switch i % 3 {
				case 0:
					get(c, k)
				case 1:
					c.Do(context.Background(), k, func(context.Context) (any, error) {
						return fmt.Sprintf("w%d-%d", w, i), nil
					})
				default:
					if i%100 == 0 {
						c.Sweep(uint64(i % 3))
					}
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFlightSurvivesInitiatorCancel is the serving-path regression test
// for coalescing: the caller that started a flight disconnects, but a
// healthy follower is still waiting — the computation must complete and
// the follower must receive the value, not the initiator's context error.
func TestFlightSurvivesInitiatorCancel(t *testing.T) {
	c := New(16)
	var computes atomic.Int32
	inFlight := make(chan struct{})
	release := make(chan struct{})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, key(0, 77), func(context.Context) (any, error) {
			computes.Add(1)
			close(inFlight)
			<-release
			return "survivor", nil
		})
		leaderDone <- err
	}()
	<-inFlight

	followerDone := make(chan struct{})
	var followerVal any
	var followerErr error
	go func() {
		defer close(followerDone)
		followerVal, _, followerErr = c.Do(context.Background(), key(0, 77), func(context.Context) (any, error) {
			computes.Add(1)
			return "recomputed", nil
		})
	}()
	// Let the follower reach the flight wait, then kill the initiator.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator err = %v, want its own context.Canceled", err)
	}
	close(release)
	<-followerDone
	if followerErr != nil {
		t.Fatalf("follower err = %v — it inherited the initiator's cancellation", followerErr)
	}
	if followerVal != "survivor" {
		t.Fatalf("follower got %v, want the shared flight's value", followerVal)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
}

// TestAbandonedFlightCancelsCompute: when the last interested caller
// gives up, the flight context must be cancelled so the engine stops.
func TestAbandonedFlightCancelsCompute(t *testing.T) {
	c := New(16)
	started := make(chan struct{})
	cancelled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, key(0, 88), func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done() // the engine observing its context
			close(cancelled)
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel() // sole caller leaves: waiters drop to zero
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was never cancelled after the last caller left")
	}
	// The failed flight must not be cached; a new call recomputes.
	v, out, err := c.Do(context.Background(), key(0, 88), func(context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil || v != "fresh" || out != Computed {
		t.Fatalf("recompute after abandoned flight = %v, %v, %v", v, out, err)
	}
}
