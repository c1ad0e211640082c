package core

import "context"

// gammaScratch is the Algorithm 4 working set: dense ρ values over
// attention indices plus the touched list that resets them in O(touched).
type gammaScratch struct {
	rhoVal     []float64
	rhoIn      []bool
	rhoTouched []int32
}

// ensure sizes the scratch to the number of attention nodes (bounded by
// Lemma 2, but sized to the actual count).
func (gs *gammaScratch) ensure(numAtt int) {
	if len(gs.rhoVal) < numAtt {
		gs.rhoVal = make([]float64, numAtt)
		gs.rhoIn = make([]bool, numAtt)
	}
}

// memoryBytes estimates the scratch footprint.
func (gs *gammaScratch) memoryBytes() int64 {
	return int64(len(gs.rhoVal))*8 + int64(len(gs.rhoIn)) + int64(cap(gs.rhoTouched))*4
}

// computeGammas runs Algorithm 4 for every attention node.
func (sp *SimPush) computeGammas(ctx context.Context, qs *queryState) error {
	sp.gamma.ensure(len(qs.att))
	for i := range qs.att {
		if i%gammaCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		qs.att[i].gamma = computeGamma(qs, int32(i), &sp.gamma)
	}
	return nil
}

// computeGamma is Algorithm 4: the last-meeting probability γ^(ℓ)(w) of
// attention node w within G_u (Definition 4), via the first-meeting
// recursion of Eqs. 9-11:
//
//	ρ^(1)(w, w₁) = h̃^(1)(w, w₁)²
//	ρ^(i)(w, wᵢ) = h̃^(i)(w, wᵢ)² − Σ_{j<i} Σ_{wⱼ} ρ^(j)(w, wⱼ)·h̃^(i−j)(wⱼ, wᵢ)²
//	γ^(ℓ)(w)     = 1 − Σ_i Σ_{wᵢ} ρ^(i)(w, wᵢ)
//
// ρ values are finalized in increasing level order: every subtraction into
// a level-(ℓ+i) target comes from a strictly shallower attention node, so a
// single forward sweep suffices.
//
// Numerical note: ignoring first meetings at non-attention nodes can drive
// an individual ρ slightly negative; negative ρ values are clamped to zero
// both when used as sources and when summed into γ (they represent
// probabilities), and γ itself is clamped to [0, 1]. The tests
// cross-validate the resulting scores against exact SimRank.
func computeGamma(qs *queryState, attIdx int32, gs *gammaScratch) float64 {
	a := &qs.att[attIdx]
	dl := qs.L - int(a.level)
	if dl <= 0 || qs.vecs == nil {
		return 1
	}
	vec := qs.vecs[a.level][a.slot]
	if len(vec) == 0 {
		return 1
	}

	// Initialize ρ(w, x) = h̃(w, x)² for every attention target of w.
	for _, e := range vec {
		if qs.att[e.a].level == a.level {
			continue // gap-0 self entry
		}
		gs.rhoVal[e.a] = e.v * e.v
		gs.rhoIn[e.a] = true
		gs.rhoTouched = append(gs.rhoTouched, e.a)
	}

	// Forward sweep over intermediate levels ℓ+1 .. L-1.
	for j := 1; j < dl; j++ {
		lvl := a.level + int32(j)
		for _, wj := range gs.rhoTouched {
			if qs.att[wj].level != lvl {
				continue
			}
			r := gs.rhoVal[wj]
			if r <= 0 {
				continue
			}
			for _, e := range qs.vecs[lvl][qs.att[wj].slot] {
				if qs.att[e.a].level == lvl {
					continue // wⱼ's self entry
				}
				// Targets unreachable from w have exactly zero meeting
				// probability; do not create spurious negative entries.
				if !gs.rhoIn[e.a] {
					continue
				}
				gs.rhoVal[e.a] -= r * e.v * e.v
			}
		}
	}

	gamma := 1.0
	for _, idx := range gs.rhoTouched {
		if v := gs.rhoVal[idx]; v > 0 {
			gamma -= v
		}
		gs.rhoVal[idx] = 0
		gs.rhoIn[idx] = false
	}
	gs.rhoTouched = gs.rhoTouched[:0]
	if gamma < 0 {
		return 0
	}
	if gamma > 1 {
		return 1
	}
	return gamma
}
