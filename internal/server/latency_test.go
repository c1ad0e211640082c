package server

import (
	"math"
	"testing"
	"time"
)

func TestBucketForBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{50 * time.Microsecond, 0},
		{100 * time.Microsecond, 0},
		{101 * time.Microsecond, 1},
		{200 * time.Microsecond, 1},
		{time.Millisecond, 4}, // bounds 0.1,0.2,0.4,0.8,1.6 → 1ms lands in bucket 4
		{time.Hour, latencyBucketCount - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bound is its own bucket's inclusive upper edge.
	for i, ub := range latencyBoundsMs {
		d := time.Duration(ub * float64(time.Millisecond))
		if got := bucketFor(d); got != i {
			t.Errorf("bucketFor(bound %d = %gms) = %d, want %d", i, ub, got, i)
		}
	}
}

func TestHistogramLoad(t *testing.T) {
	var h latencyHist
	if counts, _ := h.load(); counts != nil {
		t.Fatal("empty histogram must load as nil")
	}
	// 90 fast observations at 1ms, 10 slow at 100ms land in their own
	// buckets, and the sum is exact.
	for i := 0; i < 90; i++ {
		h.observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(100 * time.Millisecond)
	}
	counts, sumMs := h.load()
	if len(counts) != latencyBucketCount {
		t.Fatalf("counts length %d, want %d", len(counts), latencyBucketCount)
	}
	if counts[bucketFor(time.Millisecond)] != 90 || counts[bucketFor(100*time.Millisecond)] != 10 {
		t.Errorf("counts = %v, want 90 in the 1ms bucket and 10 in the 100ms bucket", counts)
	}
	if want := 90*1.0 + 10*100.0; math.Abs(sumMs-want) > 1e-6 {
		t.Errorf("sum = %.3f ms, want %.3f", sumMs, want)
	}
}

func TestLatencyBucketsMsIsCopy(t *testing.T) {
	a := LatencyBucketsMs()
	a[0] = -1
	if b := LatencyBucketsMs(); b[0] == -1 {
		t.Fatal("LatencyBucketsMs returned shared backing storage")
	}
}
