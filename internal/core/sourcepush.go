package core

import "context"

// walkCtxBatch is how many level-detection √c-walks run between two
// cancellation checks.
const walkCtxBatch = 256

// sourcePush is Algorithm 2: it detects the max level L by √c-walk
// sampling, then computes the exact hitting probabilities h^(ℓ)(u, ·) for
// ℓ = 0..L by deterministic residue propagation over in-edges, recording
// the source graph G_u level by level, and finally extracts the attention
// sets A_u^(ℓ) = {w : h^(ℓ)(u, w) ≥ ε_h}. The instant between the two
// halves is recorded in qs.tWalkDone so QueryCtx can report the walk
// sample and the push as separate Durations stages.
//
// Cancellation is checked between walk batches and between levels; an
// abort happens only at those boundaries, where the engine scratch
// (hScratch, hTouched, slots) is consistent with qs.levels, so the caller
// can clean up with resetSlots alone.
func (sp *SimPush) sourcePush(ctx context.Context, qs *queryState) error {
	L, err := sp.detectMaxLevel(ctx, qs)
	if err != nil {
		return err
	}
	qs.L = L
	qs.tWalkDone = sp.opt.clock().Now()

	// Level 0 holds only the query node with h^(0)(u, u) = 1.
	sp.slotLevel(0)[qs.u] = 0
	qs.levels = append(qs.levels, level{nodes: []int32{qs.u}, h: []float64{1}})

	// Push levels 0 .. L-1 (Algorithm 2 lines 9-19). Every node v in the
	// frontier sends √c·h^(ℓ)(u,v)/d_I(v) to each in-neighbor; in-neighbors
	// form level ℓ+1.
	for l := 0; l < qs.L; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := &qs.levels[l]
		for i, v := range cur.nodes {
			in := sp.g.In(v)
			if len(in) == 0 {
				continue
			}
			w := qs.p.sqrtC * cur.h[i] * sp.g.InvInDeg(v)
			for _, vp := range in {
				if sp.hScratch[vp] == 0 {
					sp.hTouched = append(sp.hTouched, vp)
				}
				sp.hScratch[vp] += w
			}
		}
		if len(sp.hTouched) == 0 {
			// Frontier died (all nodes dangling): G_u ends here.
			qs.L = l
			break
		}
		next := level{
			nodes: make([]int32, len(sp.hTouched)),
			h:     make([]float64, len(sp.hTouched)),
		}
		slots := sp.slotLevel(l + 1)
		for i, v := range sp.hTouched {
			next.nodes[i] = v
			next.h[i] = sp.hScratch[v]
			sp.hScratch[v] = 0
			slots[v] = int32(i)
		}
		sp.hTouched = sp.hTouched[:0]
		qs.levels = append(qs.levels, next)
	}

	// Attention sets (Algorithm 2 lines 20-21). Level 0 is excluded: the
	// ℓ = 0 term of Eq. 7 is the trivial self-meeting.
	qs.attByLevel = make([][]int32, len(qs.levels))
	for l := 1; l < len(qs.levels); l++ {
		lv := &qs.levels[l]
		for i, hv := range lv.h {
			if hv >= qs.p.epsH {
				idx := int32(len(qs.att))
				qs.att = append(qs.att, attNode{
					level: int32(l),
					node:  lv.nodes[i],
					slot:  int32(i),
					h:     hv,
					gamma: 1,
				})
				qs.attByLevel[l] = append(qs.attByLevel[l], idx)
			}
		}
	}
	return nil
}

// detectMaxLevel samples n_w √c-walks from u and returns the deepest level
// at which some node was visited at least countThld times (Algorithm 2
// lines 1-8), capped at L*. In deterministic mode (n_w = 0) it returns L*
// directly.
func (sp *SimPush) detectMaxLevel(ctx context.Context, qs *queryState) (int, error) {
	if qs.p.nWalks == 0 {
		return qs.p.lStar, nil
	}
	sp.counter.Reset()
	for i := 0; i < qs.p.nWalks; i++ {
		if i%walkCtxBatch == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		v := qs.u
		for step := 1; step <= qs.p.lStar; step++ {
			nv, ok := sp.walker.Next(v)
			if !ok {
				break
			}
			v = nv
			sp.counter.Add(step, v)
		}
	}
	return sp.levelFromCounts(qs), nil
}

// levelFromCounts reads the detected max level off the engine's visit
// counters: the deepest level where some node reached countThld.
func (sp *SimPush) levelFromCounts(qs *queryState) int {
	L := 0
	for l := 1; l < sp.counter.MaxLevels(); l++ {
		if sp.counter.MaxCountAt(l) >= qs.p.countThld {
			L = l
		}
	}
	if L > qs.p.lStar {
		L = qs.p.lStar
	}
	return L
}
