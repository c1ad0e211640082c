package walk

import (
	"math"
	"testing"

	"github.com/simrank/simpush/internal/gen"
	"github.com/simrank/simpush/internal/graph"
	"github.com/simrank/simpush/internal/rnd"
)

const testC = 0.6

func TestWalkStopsAtDangling(t *testing.T) {
	// Path 0->1->2: in-neighbor chains run 2 -> 1 -> 0; node 0 has no
	// in-neighbors so every walk from 2 has length <= 2.
	g := gen.Path(3)
	w := NewWalker(g, testC, rnd.New(1))
	for i := 0; i < 1000; i++ {
		steps := w.Sample(2)
		if len(steps) > 2 {
			t.Fatalf("walk exceeded reachable depth: %v", steps)
		}
		for j, v := range steps {
			if v != 2-int32(j+1) {
				t.Fatalf("walk stepped off the in-chain: %v", steps)
			}
		}
	}
}

func TestWalkLengthGeometric(t *testing.T) {
	// On a cycle every node has exactly one in-neighbor, so walk length is
	// geometric with success probability 1-√c: E[len] = √c/(1-√c).
	g := gen.Cycle(10)
	w := NewWalker(g, testC, rnd.New(2))
	const n = 200000
	var total float64
	for i := 0; i < n; i++ {
		total += float64(len(w.Sample(0)))
	}
	sqrtC := math.Sqrt(testC)
	want := sqrtC / (1 - sqrtC)
	got := total / n
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("mean walk length %v, want %v", got, want)
	}
}

func TestSampleTruncated(t *testing.T) {
	g := gen.Cycle(5)
	w := NewWalker(g, 0.99, rnd.New(3))
	for i := 0; i < 100; i++ {
		if got := len(w.SampleTruncated(0, 4)); got > 4 {
			t.Fatalf("truncated walk of length %d", got)
		}
	}
}

func TestMeetSameNode(t *testing.T) {
	g := gen.Cycle(4)
	w := NewWalker(g, testC, rnd.New(4))
	if !w.Meet(2, 2) {
		t.Fatal("Meet(v,v) must be true")
	}
}

func TestMeetProbabilityOnCycle(t *testing.T) {
	// On a directed n-cycle, walks from distinct nodes stay at a constant
	// cyclic distance, so they can never meet: s(u,v) = 0 for u != v.
	g := gen.Cycle(6)
	w := NewWalker(g, testC, rnd.New(5))
	for i := 0; i < 2000; i++ {
		if w.Meet(0, 3) {
			t.Fatal("distinct cycle nodes met")
		}
	}
}

func TestMeetProbabilityOnStarLeaves(t *testing.T) {
	// Star with hub 0: leaves have no in-neighbors... walks from leaves stop
	// immediately, so leaves never meet.
	g := gen.Star(5)
	w := NewWalker(g, testC, rnd.New(6))
	for i := 0; i < 100; i++ {
		if w.Meet(1, 2) {
			t.Fatal("star leaves met")
		}
	}
	// Hub walks jump to leaves: two hub-walks... u==v is trivially true.
	// Instead check hub-vs-leaf: leaf walk stops at step 0; hub walk needs
	// step>=1; they can never coincide at the same step.
	for i := 0; i < 100; i++ {
		if w.Meet(0, 1) {
			t.Fatal("hub met leaf")
		}
	}
}

// Exact SimRank on the 2-clique {0,1} (edges both ways): s(0,1) satisfies
// s = c * s(1,0)... by symmetry s(0,1) = c/(2-c)... Let's derive: I(0)={1},
// I(1)={0}. s(0,1) = c * s(1,0) = c * s(0,1)?? No: s(0,1) = c/(1*1) * s(1,0)
// where s(1,0)=s(0,1) unless 1==0. Actually s(0,1) = c * s(1,0) requires
// s(0,1)(1-c)=0 => 0? No — careful: s(1,0) means SimRank between the
// in-neighbors, which are (1's in-neighbor)=0 and (0's in-neighbor)=1, so
// s(0,1) = c*s(1,0) = c*s(0,1) only if s(1,0)=s(0,1) — giving s(0,1)=0??
// The √c-walk view: walks from 0 and 1 alternate deterministically
// 0->1->0... and 1->0->1..., never equal at the same step => s(0,1)=0. Yes.
func TestMeetTwoClique(t *testing.T) {
	b := gen.Cycle(2) // 0->1, 1->0 is exactly the 2-cycle
	w := NewWalker(b, testC, rnd.New(7))
	for i := 0; i < 1000; i++ {
		if w.Meet(0, 1) {
			t.Fatal("2-cycle nodes met; walks should alternate forever")
		}
	}
}

func TestMeetOnSharedParent(t *testing.T) {
	// Nodes 1 and 2 both have single in-neighbor 0; walks from 1 and 2 meet
	// at 0 at step 1 iff both walks take a first step: probability c.
	g := gen.Star(3) // edges 1->0, 2->0: in-neighbors of 1,2 are empty! star is leaves->hub.
	// Build the opposite: hub 0 -> leaves. Then In(leaf) = {0}.
	_ = g
	gr := graph.MustFromPairs([2]int32{0, 1}, [2]int32{0, 2})
	w := NewWalker(gr, testC, rnd.New(8))
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if w.Meet(1, 2) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-testC) > 0.01 {
		t.Fatalf("meet probability %v, want c=%v", got, testC)
	}
}

func TestLevelCounter(t *testing.T) {
	lc := NewLevelCounter(10)
	lc.Add(1, 3)
	lc.Add(1, 3)
	lc.Add(2, 5)
	if lc.Count(1, 3) != 2 {
		t.Fatalf("count = %d", lc.Count(1, 3))
	}
	if lc.Count(1, 5) != 0 || lc.Count(9, 0) != 0 {
		t.Fatal("phantom counts")
	}
	if lc.MaxLevels() != 3 {
		t.Fatalf("MaxLevels = %d", lc.MaxLevels())
	}
	if lc.MaxCountAt(1) != 2 || lc.MaxCountAt(2) != 1 || lc.MaxCountAt(7) != 0 {
		t.Fatal("MaxCountAt wrong")
	}
	lc.Reset()
	if lc.Count(1, 3) != 0 || lc.MaxCountAt(1) != 0 {
		t.Fatal("reset incomplete")
	}
	lc.Add(1, 3)
	if lc.Count(1, 3) != 1 {
		t.Fatal("counter unusable after reset")
	}
}

func BenchmarkSample(b *testing.B) {
	g, err := gen.CopyingModel(50000, 10, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWalker(g, testC, rnd.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Sample(int32(i) % g.N())
	}
}

func BenchmarkMeet(b *testing.B) {
	g, err := gen.CopyingModel(50000, 10, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWalker(g, testC, rnd.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Meet(int32(i)%g.N(), int32(i+1)%g.N())
	}
}

func TestLevelCounterForEach(t *testing.T) {
	lc := NewLevelCounter(10)
	lc.Add(1, 3)
	lc.Add(1, 3)
	lc.Add(1, 7)
	got := map[int32]int32{}
	lc.ForEach(1, func(v, c int32) { got[v] = c })
	if len(got) != 2 || got[3] != 2 || got[7] != 1 {
		t.Fatalf("ForEach = %v", got)
	}
	// out-of-range level is a no-op
	lc.ForEach(9, func(v, c int32) { t.Fatal("phantom level") })
	lc.Reset()
	lc.ForEach(1, func(v, c int32) { t.Fatal("survived reset") })
}

// Rebind must swap the traversed graph while the random stream continues;
// walks after a rebind stay within the new graph's node range.
func TestWalkerRebind(t *testing.T) {
	small := gen.Cycle(4)
	big := gen.Cycle(64)
	w := NewWalker(small, testC, rnd.New(1))
	for i := 0; i < 50; i++ {
		w.Sample(2)
	}
	w.Rebind(big)
	for i := 0; i < 500; i++ {
		for _, v := range w.Sample(40) {
			if v < 0 || v >= big.N() {
				t.Fatalf("post-rebind walk left the graph: node %d", v)
			}
		}
	}
	// Rebinding to a smaller graph works the same way.
	w.Rebind(small)
	for i := 0; i < 500; i++ {
		for _, v := range w.Sample(2) {
			if v < 0 || v >= small.N() {
				t.Fatalf("post-shrink walk left the graph: node %d", v)
			}
		}
	}
}

// Grow must extend allocated levels in place with zeroed entries and keep
// counts accumulated so far.
func TestLevelCounterGrow(t *testing.T) {
	lc := NewLevelCounter(3)
	lc.Add(1, 2)
	lc.Add(1, 2)
	lc.Grow(10)
	if got := lc.Count(1, 2); got != 2 {
		t.Fatalf("count lost across Grow: %d", got)
	}
	// New ids are addressable at already-allocated levels without panics.
	lc.Add(1, 9)
	if got := lc.Count(1, 9); got != 1 {
		t.Fatalf("count at grown id = %d", got)
	}
	// Levels allocated after Grow use the new size.
	lc.Add(2, 7)
	if got := lc.Count(2, 7); got != 1 {
		t.Fatalf("count at new level = %d", got)
	}
	lc.Reset()
	for _, probe := range [][2]int32{{1, 2}, {1, 9}, {2, 7}} {
		if got := lc.Count(int(probe[0]), probe[1]); got != 0 {
			t.Fatalf("count (%d,%d) survived Reset: %d", probe[0], probe[1], got)
		}
	}
	// Shrink keeps the larger arrays; ids below the new n remain valid.
	lc.Grow(5)
	lc.Add(1, 4)
	if got := lc.Count(1, 4); got != 1 {
		t.Fatalf("count after shrink = %d", got)
	}
}
