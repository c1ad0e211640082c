// Package walk implements √c-walk sampling (Definition 2 of the SimPush
// paper): a random walk that at each node stops with probability 1−√c and
// otherwise jumps to a uniformly random in-neighbor. A node with no
// in-neighbors forces the walk to stop.
//
// √c-walks underlie the SimRank decomposition s(u,v) = Σ_ℓ Σ_w κ^(ℓ)(u,v,w)
// used by SimPush, SLING, PRSim, ProbeSim and READS.
package walk

import (
	"math"

	"github.com/simrank/simpush/internal/graph"
	"github.com/simrank/simpush/internal/rnd"
)

// Walker samples √c-walks over a fixed graph with a fixed decay factor.
// Not safe for concurrent use (owns its RNG).
type Walker struct {
	g     *graph.Graph
	sqrtC float64
	rng   *rnd.Source
	buf   []int32
}

// NewWalker returns a Walker for graph g with decay factor c (the SimRank
// decay, not its square root) and the given RNG.
func NewWalker(g *graph.Graph, c float64, rng *rnd.Source) *Walker {
	return &Walker{g: g, sqrtC: math.Sqrt(c), rng: rng, buf: make([]int32, 0, 64)}
}

// Rebind points the walker at a new graph snapshot. The random stream
// continues where it left off — rebinding changes what the walks traverse,
// not how they are sampled.
func (w *Walker) Rebind(g *graph.Graph) {
	w.g = g
}

// Reseed resets the walker's random stream, making everything sampled
// afterwards deterministic in seed alone.
func (w *Walker) Reseed(seed uint64) {
	w.rng.Seed(seed)
}

// PushSeed reseeds the walker for a bounded scope and returns a restore
// function that resumes the original stream exactly where it left off —
// the seeded scope leaves no trace on later sampling.
func (w *Walker) PushSeed(seed uint64) (restore func()) {
	a, b, c, d := w.rng.State()
	w.rng.Seed(seed)
	return func() { w.rng.Restore(a, b, c, d) }
}

// Next performs one step of a √c-walk currently at v. It returns the next
// node and true, or (v, false) if the walk stops (decay or dangling node).
func (w *Walker) Next(v int32) (int32, bool) {
	if w.rng.Float64() >= w.sqrtC {
		return v, false
	}
	in := w.g.In(v)
	if len(in) == 0 {
		return v, false
	}
	return in[w.rng.Intn(len(in))], true
}

// Sample generates a complete √c-walk from u. The returned slice contains
// the visited nodes from step 1 onward (u itself, step 0, is excluded) and
// is only valid until the next call on this Walker.
func (w *Walker) Sample(u int32) []int32 {
	w.buf = w.buf[:0]
	v := u
	for {
		nv, ok := w.Next(v)
		if !ok {
			return w.buf
		}
		v = nv
		w.buf = append(w.buf, v)
	}
}

// SampleTruncated is Sample with a hard cap on the number of steps.
func (w *Walker) SampleTruncated(u int32, maxSteps int) []int32 {
	w.buf = w.buf[:0]
	v := u
	for len(w.buf) < maxSteps {
		nv, ok := w.Next(v)
		if !ok {
			break
		}
		v = nv
		w.buf = append(w.buf, v)
	}
	return w.buf
}

// Meet simulates two independent √c-walks from u and v and reports whether
// they ever occupy the same node at the same step (the first-meeting event
// whose probability is exactly s(u,v); see Eq. 5 of the paper).
func (w *Walker) Meet(u, v int32) bool {
	if u == v {
		return true
	}
	a, b := u, v
	for {
		na, okA := w.Next(a)
		nb, okB := w.Next(b)
		if !okA || !okB {
			// One walk stopped: with per-step synchronized decay the pair
			// can no longer meet at a common step.
			return false
		}
		a, b = na, nb
		if a == b {
			return true
		}
	}
}

// LevelCounter accumulates per-(step, node) visit counts of √c-walks, the
// H^(ℓ)(u,v) statistics of Source-Push (Algorithm 2 lines 1-3). Counters
// are allocated per level on demand and reset in O(touched).
type LevelCounter struct {
	n       int32
	counts  [][]int32 // counts[ℓ][v]
	touched [][]int32 // touched[ℓ] lists nodes with counts[ℓ][v] > 0
}

// NewLevelCounter returns a counter for a graph with n nodes.
func NewLevelCounter(n int32) *LevelCounter {
	return &LevelCounter{n: n}
}

// Grow resizes the counter for a graph that now has n nodes, extending
// already-allocated per-level arrays in place (appended entries are zero,
// preserving the reset invariant). Shrinking keeps the larger arrays —
// node ids below the new n stay valid and nothing reallocates.
func (lc *LevelCounter) Grow(n int32) {
	if n > lc.n {
		for l, c := range lc.counts {
			if c == nil || int32(len(c)) >= n {
				continue
			}
			lc.counts[l] = append(c, make([]int32, n-int32(len(c)))...)
		}
	}
	lc.n = n
}

// Add records a visit of v at step ℓ (ℓ >= 1).
func (lc *LevelCounter) Add(level int, v int32) {
	for len(lc.counts) <= level {
		lc.counts = append(lc.counts, nil)
		lc.touched = append(lc.touched, nil)
	}
	if lc.counts[level] == nil {
		lc.counts[level] = make([]int32, lc.n)
	}
	if lc.counts[level][v] == 0 {
		lc.touched[level] = append(lc.touched[level], v)
	}
	lc.counts[level][v]++
}

// MaxLevels returns the number of levels that received any visit.
func (lc *LevelCounter) MaxLevels() int {
	return len(lc.counts)
}

// Count returns the visit count of v at the given level.
func (lc *LevelCounter) Count(level int, v int32) int32 {
	if level >= len(lc.counts) || lc.counts[level] == nil {
		return 0
	}
	return lc.counts[level][v]
}

// ForEach invokes fn for every node with a nonzero count at the level.
func (lc *LevelCounter) ForEach(level int, fn func(v int32, count int32)) {
	if level >= len(lc.counts) || lc.counts[level] == nil {
		return
	}
	for _, v := range lc.touched[level] {
		if c := lc.counts[level][v]; c > 0 {
			fn(v, c)
		}
	}
}

// MaxCountAt returns the maximum count observed at the given level.
func (lc *LevelCounter) MaxCountAt(level int) int32 {
	if level >= len(lc.counts) {
		return 0
	}
	var mx int32
	for _, v := range lc.touched[level] {
		if c := lc.counts[level][v]; c > mx {
			mx = c
		}
	}
	return mx
}

// MemoryBytes reports the counter's footprint: one n-sized count array
// and one touched list for every level a walk has reached.
func (lc *LevelCounter) MemoryBytes() int64 {
	var b int64
	for l, c := range lc.counts {
		b += int64(cap(c)+cap(lc.touched[l])) * 4
	}
	return b
}

// Reset clears all counters in O(total touched).
func (lc *LevelCounter) Reset() {
	for l := range lc.counts {
		if lc.counts[l] == nil {
			continue
		}
		for _, v := range lc.touched[l] {
			lc.counts[l][v] = 0
		}
		lc.touched[l] = lc.touched[l][:0]
	}
}
