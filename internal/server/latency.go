package server

import (
	"sync/atomic"
	"time"
)

// Per-endpoint latency histograms, split by serving path, so operators
// (and simload) can compute server-side percentiles and cross-check the
// client-observed ones: a gap between the two is network/queueing, not
// engine time.
//
// Buckets are fixed at process start — exponential, 100µs doubling up to
// ~200s plus an overflow bucket — so snapshots are a pair of small
// arrays, merging across scrapes is trivial, and recording is two atomic
// adds on the request path.

// latencyBucketCount includes the overflow bucket.
const latencyBucketCount = 22

// latencyBoundsMs holds the inclusive upper bound of each bucket in
// milliseconds; the last bucket is unbounded.
var latencyBoundsMs = func() [latencyBucketCount - 1]float64 {
	var b [latencyBucketCount - 1]float64
	v := 0.1
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// LatencyBucketsMs returns a copy of the bucket upper bounds (ms); every
// histogram's counts align with it, plus one trailing overflow bucket.
func LatencyBucketsMs() []float64 {
	out := make([]float64, len(latencyBoundsMs))
	copy(out, latencyBoundsMs[:])
	return out
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	ms := d.Seconds() * 1000
	// The bounds double, so a linear scan over 21 floats beats the
	// branch-mispredict cost of binary search at this size.
	for i, ub := range latencyBoundsMs {
		if ms <= ub {
			return i
		}
	}
	return latencyBucketCount - 1
}

// latencyHist is a fixed-bucket concurrent histogram. The zero value is
// ready to use.
type latencyHist struct {
	counts   [latencyBucketCount]atomic.Uint64
	total    atomic.Uint64
	sumNanos atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.total.Add(1)
	h.sumNanos.Add(uint64(d))
}

// load returns the per-bucket counts and the summed duration in
// milliseconds, or nil counts when nothing was recorded, so idle paths
// are omitted from /metricsz instead of rendering 22 zeroes.
func (h *latencyHist) load() (counts []uint64, sumMs float64) {
	if h.total.Load() == 0 {
		return nil, 0
	}
	counts = make([]uint64, latencyBucketCount)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, float64(h.sumNanos.Load()) / 1e6
}

// Serving paths a request can resolve through. Engine latencies include
// admission queueing; cache latencies are hits and coalesced waits.
const (
	pathEngine = iota
	pathCache
	pathCount
)

// observeLatency records one successful request's duration under its
// endpoint and serving path.
func (s *Server) observeLatency(kind, path int, d time.Duration) {
	s.lat[kind][path].observe(d)
}
