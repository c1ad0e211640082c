package core

import (
	"math"
	"testing"
)

// FuzzQueryOpts checks the option domain: whatever engine Options and
// per-query overrides New and QueryCtx accept must derive a walk depth, a
// walk count and a count threshold that the engine's int32 level counters
// can run. A NaN or overflowing value that slipped through validate would
// reach deriveParams' int conversions as an arbitrary count.
func FuzzQueryOpts(f *testing.F) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 1e-300, 5e-324, 1e-9, 0.02} {
		f.Add(x, 0.0, 0.0, uint8(0), 0, 0.0, 0.0, false, 0)
		f.Add(0.0, x, 0.0, uint8(0), 0, 0.0, 0.0, false, 0)
		f.Add(0.0, 0.0, x, uint8(0), 0, 0.0, 0.0, false, 0)
		f.Add(0.0, 0.0, 0.0, uint8(0), 0, x, x, false, 0)
	}
	f.Add(0.0, 0.0, 0.0, uint8(LevelDetectHoeffding), 0, 1e-3, 0.0, true, 1000)
	f.Add(0.0, 1e-300, 0.0, uint8(0), 1000, 0.0, 0.0, false, 0)
	f.Add(0.0, 0.0, 0.0, uint8(0), 0, 1e-300, 0.0, true, 1000)
	f.Add(0.0, 0.0, 0.0, uint8(0), -5, 0.0, 0.0, true, -5)
	f.Add(0.0, 0.0, 0.0, uint8(LevelDetectDeterministic), 0, 1e-300, 0.0, false, 0)
	f.Fuzz(func(t *testing.T, c, eps, delta float64, mode uint8, maxWalks int, qEps, qDelta float64, hasQWalks bool, qWalks int) {
		eng := Options{C: c, Epsilon: eps, Delta: delta, LevelDetect: LevelDetectMode(mode % 3), MaxWalks: maxWalks}.withDefaults()
		if eng.validate() != nil {
			return
		}
		checkParams(t, eng)
		q := QueryOpts{Epsilon: qEps, Delta: qDelta, MaxWalks: qWalks, HasMaxWalks: hasQWalks}
		merged := eng.merge(q)
		if merged.validate() != nil {
			return
		}
		checkParams(t, merged)
	})
}

func checkParams(t *testing.T, o Options) {
	t.Helper()
	uncapped := o
	uncapped.MaxWalks = 0
	if _, _, _, nWalks := uncapped.sampleBounds(); !(nWalks <= math.MaxInt32) {
		t.Fatalf("%+v: uncapped n_w = %v, over MaxInt32", o, nWalks)
	}
	p := deriveParams(o)
	if p.lStar < 1 {
		t.Fatalf("%+v: L* = %d, want >= 1", o, p.lStar)
	}
	if p.nWalks < 0 || p.nWalks > math.MaxInt32 {
		t.Fatalf("%+v: n_w = %d, want in [0, MaxInt32]", o, p.nWalks)
	}
	if p.countThld < 1 {
		t.Fatalf("%+v: count threshold = %d, want >= 1", o, p.countThld)
	}
}
