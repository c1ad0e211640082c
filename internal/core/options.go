// Package core implements SimPush, the index-free single-source SimRank
// algorithm of Shi et al. (PVLDB 2020): Source-Push attention-node
// discovery (Algorithm 2), deterministic last-meeting correction within the
// source graph (Algorithms 3-4), and Reverse-Push score accumulation
// (Algorithm 5).
package core

import (
	"fmt"
	"math"
	"time"
)

// LevelDetectMode selects the sample-size rule for the max-level detection
// phase of Source-Push (Algorithm 2, lines 1-8).
type LevelDetectMode int

const (
	// LevelDetectChernoff sizes the walk sample by multiplicative Chernoff
	// bounds: n_w = ⌈12·ln(1/((1−√c)·ε_h·δ))/ε_h⌉ with count threshold
	// n_w·ε_h/2. Detecting whether some node's hitting probability exceeds
	// ε_h only requires relative-error concentration around the mean ε_h,
	// so the 1/ε_h² Hoeffding sample of the paper's pseudocode is loose;
	// this is the default and keeps small-ε settings realtime.
	LevelDetectChernoff LevelDetectMode = iota
	// LevelDetectHoeffding uses the paper-literal sample size
	// n_w = ⌈2·ln(1/((1−√c)·ε_h·δ))/ε_h²⌉ (Algorithm 2 line 2) with the
	// corrected count threshold ln(…)/ε_h = n_w·ε_h/2 implied by the
	// Hoeffding argument in the proof of Lemma 5. (The threshold printed
	// in Algorithm 2 line 6, ln(…)/ε_h², equals half the walk count — an
	// empirical frequency of ½ — which contradicts that proof.)
	LevelDetectHoeffding
	// LevelDetectDeterministic skips the sampling phase entirely and
	// pushes to the worst-case depth L* = ⌊log_{1/√c}(1/ε_h)⌋ (Lemma 2).
	// The guarantee becomes deterministic (no δ), but Source-Push explores
	// every level up to L* instead of the usually much smaller true L —
	// the ablation that shows why Algorithm 2 samples walks at all.
	LevelDetectDeterministic
)

// Clock supplies the stage timestamps behind Result.Durations. It is an
// interface rather than a func type on purpose: Options must stay
// comparable (the root package's batch dispatcher uses it inside a map
// key), and interface values holding comparable implementations are.
// Implementations must be cheap — Now is called a handful of times per
// query, never inside a stage loop.
type Clock interface {
	Now() time.Time
}

// Options configures a SimPush engine. The zero value of each field selects
// the paper's defaults.
type Options struct {
	// C is the SimRank decay factor. Default 0.6 (the paper's setting).
	C float64
	// Epsilon is the maximum absolute error ε of Definition 1. Default 0.02.
	Epsilon float64
	// Delta is the failure probability δ. Default 1e-4 (the paper's setting).
	Delta float64
	// LevelDetect selects the walk-sampling rule (see the mode docs).
	LevelDetect LevelDetectMode
	// DisableGamma skips the last-meeting correction (sets γ ≡ 1). This is
	// an ablation switch: scores then overestimate SimRank by counting
	// repeated meetings, quantifying how much Algorithms 3-4 buy.
	DisableGamma bool
	// Seed drives the level-detection walks. Queries with the same seed,
	// graph and options are deterministic.
	Seed uint64
	// MaxWalks optionally caps the level-detection sample size (0 = no cap).
	// Intended for experiments; capping voids the δ guarantee.
	MaxWalks int
	// Clock overrides the wall clock behind Result.Durations — injected
	// by tests and the observability layer so the engine itself performs
	// no ambient time.Now reads (the detmerge invariant). nil uses the
	// process clock. Timestamps never reach scores or control flow.
	Clock Clock
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.02
	}
	if o.Delta == 0 {
		o.Delta = 1e-4
	}
	return o
}

// validate rejects options outside the paper's domain, and any (c, ε, δ)
// whose derived L* or walk count an int32 level counter cannot hold. Each
// range test is written so that NaN, which fails every comparison, fails
// it too.
func (o Options) validate() error {
	if !(o.C > 0 && o.C < 1) {
		return fmt.Errorf("core: %w: decay factor c must be in (0,1), got %v", ErrInvalidOptions, o.C)
	}
	if !(o.Epsilon > 0 && o.Epsilon < 1) {
		return fmt.Errorf("core: %w: epsilon must be in (0,1), got %v", ErrInvalidOptions, o.Epsilon)
	}
	if !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("core: %w: delta must be in (0,1), got %v", ErrInvalidOptions, o.Delta)
	}
	_, _, lStar, nWalks := o.sampleBounds()
	if math.IsInf(lStar, 0) || math.IsNaN(lStar) {
		return fmt.Errorf("core: %w: epsilon %v too small: the attention threshold ε_h underflows", ErrInvalidOptions, o.Epsilon)
	}
	if !(nWalks <= math.MaxInt32) {
		return fmt.Errorf("core: %w: epsilon %v and delta %v need %.3g level-detection walks, over the limit of %d",
			ErrInvalidOptions, o.Epsilon, o.Delta, nWalks, math.MaxInt32)
	}
	return nil
}

// MaxLevelBound returns the walk-depth truncation bound
// L* = ⌊log_{1/√c}(1/ε_h)⌋ (Lemma 2) implied by the options, with
// defaults applied to zero fields. Every adjacency list, reciprocal
// in-degree and walk transition a query reads lies within L* hops of the
// nodes its pushes and walks visit, so L* is the BFS depth at which an
// affected-node over-approximation for cache carry-forward is sound.
func (o Options) MaxLevelBound() int {
	return deriveParams(o.withDefaults()).lStar
}

// QueryOpts carries per-query overrides of the engine Options. The zero
// value inherits every engine setting; a set field replaces the engine
// value for one query only, with the derived quantities (ε_h, L*, walk
// counts) recomputed from the merged options. The engine scratch is sized
// to the graph, not to the parameters, so overrides reuse it fully.
type QueryOpts struct {
	// Epsilon overrides the error bound ε when nonzero.
	Epsilon float64
	// Delta overrides the failure probability δ when nonzero.
	Delta float64
	// Seed, when HasSeed is set, reseeds the level-detection walk stream at
	// the start of the query, making the query deterministic regardless of
	// what ran before on the same engine.
	Seed    uint64
	HasSeed bool
	// MaxWalks, when HasMaxWalks is set, replaces the engine walk cap
	// (0 removes the cap).
	MaxWalks    int
	HasMaxWalks bool
}

// IsZero reports whether the overrides leave every engine setting intact.
func (q QueryOpts) IsZero() bool {
	return q == QueryOpts{}
}

// merge returns the engine options with the per-query overrides applied.
func (o Options) merge(q QueryOpts) Options {
	if q.Epsilon != 0 {
		o.Epsilon = q.Epsilon // negative values fail validate, not silently drop
	}
	if q.Delta != 0 {
		o.Delta = q.Delta
	}
	if q.HasSeed {
		o.Seed = q.Seed
	}
	if q.HasMaxWalks {
		o.MaxWalks = q.MaxWalks
	}
	return o
}

// params holds the quantities derived from Options that the three stages
// share (Table 2 of the paper).
type params struct {
	c     float64
	sqrtC float64
	eps   float64
	epsH  float64 // ε_h = (1−√c)/(3√c)·ε  (Definition 3 / Lemma 4)
	delta float64
	lStar int // L* = ⌊log_{1/√c}(1/ε_h)⌋  (Lemma 2)

	nWalks    int   // level-detection sample size
	countThld int32 // per-(level,node) count threshold for detecting L
}

// sampleBounds returns √c, ε_h, L* and the level-detection sample size
// n_w (after the MaxWalks cap) in float64. validate checks L* and n_w here,
// before deriveParams converts them to int: a conversion of a value no int
// holds is implementation-defined, and on amd64 a NaN or overflowing walk
// count becomes MinInt64, which runs no walk at all.
func (o Options) sampleBounds() (sqrtC, epsH, lStar, nWalks float64) {
	sqrtC = math.Sqrt(o.C)
	epsH = (1 - sqrtC) / (3 * sqrtC) * o.Epsilon
	lStar = math.Floor(math.Log(1/epsH) / math.Log(1/sqrtC))
	// X = 1/((1−√c)·ε_h·δ): the union-bound term of Lemma 5.
	logX := math.Log(1 / ((1 - sqrtC) * epsH * o.Delta))
	if logX < 1 {
		logX = 1
	}
	switch o.LevelDetect {
	case LevelDetectHoeffding:
		nWalks = math.Ceil(2 * logX / (epsH * epsH))
	case LevelDetectDeterministic:
		nWalks = 0
	default:
		nWalks = math.Ceil(12 * logX / epsH)
	}
	if o.MaxWalks > 0 && nWalks > float64(o.MaxWalks) {
		nWalks = float64(o.MaxWalks)
	}
	return sqrtC, epsH, lStar, nWalks
}

func deriveParams(o Options) params {
	sqrtC, epsH, lStar, nWalks := o.sampleBounds()
	p := params{c: o.C, sqrtC: sqrtC, eps: o.Epsilon, epsH: epsH, delta: o.Delta}
	p.lStar = int(lStar)
	if p.lStar < 1 {
		p.lStar = 1
	}
	p.nWalks = int(nWalks)
	p.countThld = int32(math.Ceil(float64(p.nWalks) * p.epsH / 2))
	if p.countThld < 1 {
		p.countThld = 1
	}
	return p
}

// MaxAttentionNodes returns the Lemma 2 bound ⌊√c/((1−√c)·ε_h)⌋ on |A_u|.
func (p params) MaxAttentionNodes() int {
	return int(math.Floor(p.sqrtC / ((1 - p.sqrtC) * p.epsH)))
}
