package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"github.com/simrank/simpush/internal/gen"
)

// heapInUse returns the live heap after a full collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemoryBytesMatchesHeapGrowth checks that MemoryBytes accounts for
// the scratch an engine really keeps: after a query workload, the live
// heap has grown by what MemoryBytes reports, within 10%. Most of it is
// O(L·n): the walk counter's per-level arrays and the per-level slots.
func TestMemoryBytesMatchesHeapGrowth(t *testing.T) {
	ds, err := gen.ByName("twitter-sim")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	before := heapInUse()
	sp, err := New(g, Options{Epsilon: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		u := int32(uint64(i) * 9973 % uint64(g.N()))
		if _, err := sp.QueryCtx(context.Background(), u, QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	grown := heapInUse() - before
	reported := sp.MemoryBytes()
	if rel := math.Abs(float64(reported-grown)) / float64(grown); rel > 0.10 {
		t.Fatalf("MemoryBytes = %.2f MB, heap grew %.2f MB (off by %.0f%%)",
			float64(reported)/(1<<20), float64(grown)/(1<<20), 100*rel)
	}
	t.Logf("MemoryBytes = %.2f MB, heap grew %.2f MB", float64(reported)/(1<<20), float64(grown)/(1<<20))
}
