package server

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// errSaturated is returned by acquire when the in-flight limit is reached
// and the wait queue is full; handlers translate it to 429 + Retry-After.
var errSaturated = errors.New("server: saturated: in-flight limit reached and wait queue full")

// admission bounds the number of engine computations running at once and
// the number of requests allowed to wait for a slot. Beyond both bounds
// requests are rejected immediately — under overload the server sheds
// load with a fast 429 instead of building an unbounded goroutine queue
// whose tail latency nobody survives.
type admission struct {
	slots    chan struct{} // buffered to the in-flight limit
	maxQueue int64
	queued   atomic.Int64
	rejected atomic.Uint64

	// Slow-path accounting: how many acquisitions had to wait for a slot
	// and how long they waited in total. Fast-path acquisitions (a slot
	// was free) cost no clock read.
	waits     atomic.Uint64
	waitNanos atomic.Uint64

	// Observed service process, feeding the Retry-After estimate: how
	// many slot-holding computations finished and how long they held
	// their slots in total.
	completed atomic.Uint64
	busyNanos atomic.Uint64
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueue),
	}
}

// acquire takes a slot, waiting in the bounded queue if none is free,
// and reports how long it waited (0 on the uncontended fast path, which
// never reads the clock). It returns errSaturated when the queue is
// full, and ctx.Err() if the request deadline expires while waiting.
func (a *admission) acquire(ctx context.Context) (time.Duration, error) {
	select {
	case a.slots <- struct{}{}:
		return 0, nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.rejected.Add(1)
		return 0, errSaturated
	}
	defer a.queued.Add(-1)
	t0 := time.Now()
	select {
	case a.slots <- struct{}{}:
		wait := time.Since(t0)
		a.waits.Add(1)
		a.waitNanos.Add(uint64(max(wait, 0)))
		return wait, nil
	case <-ctx.Done():
		return time.Since(t0), ctx.Err()
	}
}

func (a *admission) release() { <-a.slots }

// inFlight reports the number of held slots.
func (a *admission) inFlight() int { return len(a.slots) }

// queueDepth reports the number of requests waiting for a slot.
func (a *admission) queueDepth() int64 { return a.queued.Load() }

// recordService notes that a computation held its slot for d. The
// running totals give the mean slot-occupancy time, the service-rate half
// of the Retry-After estimate.
func (a *admission) recordService(d time.Duration) {
	if d < 0 {
		return
	}
	a.completed.Add(1)
	a.busyNanos.Add(uint64(d))
}

// avgServiceNanos is the observed mean slot-occupancy time (0 before any
// computation has finished).
func (a *admission) avgServiceNanos() uint64 {
	done := a.completed.Load()
	if done == 0 {
		return 0
	}
	return a.busyNanos.Load() / done
}

// estimateRetryAfter derives the 429 Retry-After from the current
// backlog and the observed service rate: a rejected request would stand
// behind everything running plus everything queued, drained by
// maxInFlight parallel slots at the observed mean service time. Before
// any observation exists it falls back to the configured constant;
// the result is clamped to [1, maxSec] so one pathological slow query
// cannot tell clients to go away for an hour.
func (a *admission) estimateRetryAfter(fallbackSec, maxSec int) int {
	avg := a.avgServiceNanos()
	if avg == 0 {
		return fallbackSec
	}
	ahead := int64(len(a.slots)) + a.queued.Load() + 1
	workers := int64(cap(a.slots))
	if workers < 1 {
		workers = 1
	}
	drainNanos := float64(ahead) * float64(avg) / float64(workers)
	secs := int(math.Ceil(drainNanos / 1e9))
	if secs < 1 {
		secs = 1
	}
	if secs > maxSec {
		secs = maxSec
	}
	return secs
}
