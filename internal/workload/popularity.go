package workload

import (
	"math"

	"github.com/simrank/simpush/internal/rnd"
)

// nodeSampler draws query nodes for one class. The boolean reports
// whether the draw came from the "hot" region (the hotset's hot nodes,
// or a Zipf draw landing in the head) — the hot-pinned seed policy keys
// off it.
type nodeSampler interface {
	sample(rng *rnd.Source) (int32, bool)
}

func newNodeSampler(p *PopularitySpec, n int32) nodeSampler {
	switch p.Dist {
	case "zipf":
		return newZipfSampler(n, p.S)
	case "hotset":
		hot := int32(p.Hot)
		if hot > n {
			hot = n
		}
		return &hotsetSampler{n: n, hot: hot, hotFrac: p.HotFrac}
	default:
		return uniformSampler{n: n}
	}
}

type uniformSampler struct{ n int32 }

func (u uniformSampler) sample(rng *rnd.Source) (int32, bool) {
	return rng.Int31n(u.n), false
}

// hotsetSampler models a hot working set: a draw comes uniformly from
// the hot prefix [0, hot) with probability hotFrac, otherwise uniformly
// from the whole graph.
type hotsetSampler struct {
	n, hot  int32
	hotFrac float64
}

func (h *hotsetSampler) sample(rng *rnd.Source) (int32, bool) {
	if rng.Float64() < h.hotFrac {
		return rng.Int31n(h.hot), true
	}
	return rng.Int31n(h.n), false
}

// zipfSampler draws ranks from a bounded Zipf(s) distribution over
// [0, n) by Hörmann–Derflinger rejection inversion — O(1) per sample
// with no O(n) tables, valid for any skew s > 0 (unlike math/rand's
// Zipf, which requires s > 1). Rank r maps to node id r, so low node
// ids are the head of the popularity curve, matching the hot-prefix
// convention of the hotset sampler and the cluster bench scripts.
type zipfSampler struct {
	n                 int32
	s                 float64
	hMax, hHalf, sDiv float64
	headBound         int32 // ranks below this count as "hot" draws
}

func newZipfSampler(n int32, s float64) *zipfSampler {
	z := &zipfSampler{n: n, s: s}
	z.hMax = z.h(1.5) - 1 // ranks are 1-based internally: [1, n]
	z.hHalf = z.h(float64(n) + 0.5)
	z.sDiv = 2 - z.hInv(z.h(2.5)-math.Pow(2, -s))
	// The "head" is the top ~1% of ranks (at least 1): a rough hotness
	// marker for the hot-pinned seed policy, not a distribution property.
	z.headBound = n / 100
	if z.headBound < 1 {
		z.headBound = 1
	}
	return z
}

// h is the integral of the unnormalized density x^-s, shifted so the
// rejection envelope is exact at the integer points.
func (z *zipfSampler) h(x float64) float64 {
	if z.s == 1 {
		return math.Log(x)
	}
	return math.Pow(x, 1-z.s) / (1 - z.s)
}

func (z *zipfSampler) hInv(x float64) float64 {
	if z.s == 1 {
		return math.Exp(x)
	}
	return math.Pow(x*(1-z.s), 1/(1-z.s))
}

func (z *zipfSampler) sample(rng *rnd.Source) (int32, bool) {
	for {
		u := z.hHalf + rng.Float64()*(z.hMax-z.hHalf)
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.h(k+0.5)-math.Pow(k, -z.s) {
			r := int32(k)
			return r - 1, r <= z.headBound
		}
	}
}
