package server

import (
	"testing"
	"time"
)

// TestRetryAfterAdaptsToBacklog: before any observation the fallback is
// served; once service times are known, the estimate scales with queue
// depth and in-flight load, and clamps at both ends.
func TestRetryAfterAdaptsToBacklog(t *testing.T) {
	a := newAdmission(2, 8)

	if got := a.estimateRetryAfter(3, 60); got != 3 {
		t.Fatalf("no observations: Retry-After = %d, want fallback 3", got)
	}

	// Observe a 1s mean service time.
	a.recordService(time.Second)

	// Idle server: one request ahead of the newcomer at most (itself),
	// drained by 2 workers → ceil(1·1s/2) = 1s.
	if got := a.estimateRetryAfter(3, 60); got != 1 {
		t.Fatalf("idle: Retry-After = %d, want 1", got)
	}

	// Fill both slots and fake a queue: ahead = 2 in-flight + 6 queued + 1,
	// drained by 2 workers at 1s each → ceil(9/2) = 5s.
	a.slots <- struct{}{}
	a.slots <- struct{}{}
	a.queued.Store(6)
	if got := a.estimateRetryAfter(3, 60); got != 5 {
		t.Fatalf("loaded: Retry-After = %d, want 5", got)
	}

	// The cap bounds pathological estimates.
	if got := a.estimateRetryAfter(3, 4); got != 4 {
		t.Fatalf("capped: Retry-After = %d, want 4", got)
	}
	a.queued.Store(0)
	<-a.slots
	<-a.slots
}

// TestRetryAfterTracksServiceRate: faster observed service times shrink
// the estimate for the same backlog.
func TestRetryAfterTracksServiceRate(t *testing.T) {
	slow := newAdmission(1, 8)
	fast := newAdmission(1, 8)
	slow.recordService(4 * time.Second)
	fast.recordService(10 * time.Millisecond)
	slow.queued.Store(3)
	fast.queued.Store(3)

	s := slow.estimateRetryAfter(1, 60)
	f := fast.estimateRetryAfter(1, 60)
	if s <= f {
		t.Fatalf("slow service estimate %ds not above fast %ds", s, f)
	}
	if f != 1 {
		t.Fatalf("fast service: Retry-After = %d, want floor 1", f)
	}
	// 3 queued + 1 = 4 ahead at 4s each on one worker → 16s.
	if s != 16 {
		t.Fatalf("slow service: Retry-After = %d, want 16", s)
	}
}

// TestRecordServiceAveragesSlots: the mean is over slot occupancies, and
// a negative duration is ignored.
func TestRecordServiceAveragesSlots(t *testing.T) {
	a := newAdmission(4, 4)
	for range 3 {
		a.recordService(2 * time.Second)
	}
	a.recordService(-time.Second) // ignored
	if got := a.avgServiceNanos(); got != uint64(2*time.Second) {
		t.Fatalf("avg = %d ns, want %d", got, uint64(2*time.Second))
	}
	a.recordService(0)
	want := uint64(6*time.Second) / 4
	if got := a.avgServiceNanos(); got != want {
		t.Fatalf("avg after zero-duration completion = %d ns, want %d", got, want)
	}
}
