package core

import "context"

// reversePush is Algorithm 5: starting from the residues r^(ℓ)(w) =
// h^(ℓ)(u,w)·γ^(ℓ)(w) of all attention nodes, residues are propagated
// level-by-level along out-edges of G (each target v receives
// √c·r/d_I(v)), with residues whose push value √c·r falls below ε_h
// dropped. Residues reaching level 0 are exactly the estimates
// h^(ℓ)(u,w)·γ^(ℓ)(w)·ĥ^(ℓ)(v,w) summed into s̃(u, v) (Eq. 8).
//
// Residues arriving at a node that also carries an initial attention
// residue at that level are combined and pushed together (the paper's
// "combine the push" optimization), which the level-synchronous sweep
// below gives for free.
//
// Cancellation is checked once per level sweep; on abort the residue
// scratch is zeroed before returning so the engine stays reusable.
func (sp *SimPush) reversePush(ctx context.Context, qs *queryState, scores []float64) error {
	n := sp.g.N()
	if len(sp.rCur) < int(n) {
		sp.rCur = make([]float64, n)
		sp.rNxt = make([]float64, n)
	}
	inv := sp.g.InvInDegs()
	cur, nxt := sp.rCur, sp.rNxt
	curT, nxtT := sp.curTouched[:0], sp.nxtTouched[:0]

	for l := qs.L; l >= 1; l-- {
		if err := ctx.Err(); err != nil {
			// Drop pending residues: the scratch must be clean for the
			// next query on this engine.
			for _, v := range curT {
				cur[v] = 0
			}
			sp.rCur, sp.rNxt = cur, nxt
			sp.curTouched, sp.nxtTouched = curT[:0], nxtT[:0]
			return err
		}
		// Inject the initial residues of level-l attention nodes.
		if l < len(qs.attByLevel) {
			for _, ai := range qs.attByLevel[l] {
				a := qs.att[ai]
				r := a.h * a.gamma
				if r == 0 {
					continue
				}
				if cur[a.node] == 0 {
					curT = append(curT, a.node)
				}
				cur[a.node] += r
			}
		}
		for _, v := range curT {
			r := cur[v]
			cur[v] = 0
			pr := qs.p.sqrtC * r
			if pr < qs.p.epsH {
				continue // prune: residue too small to matter (Lemma 4)
			}
			if l > 1 {
				for _, t := range sp.g.Out(v) {
					if nxt[t] == 0 {
						nxtT = append(nxtT, t)
					}
					nxt[t] += pr * inv[t]
				}
			} else {
				for _, t := range sp.g.Out(v) {
					scores[t] += pr * inv[t]
				}
			}
		}
		curT = curT[:0]
		cur, nxt = nxt, cur
		curT, nxtT = nxtT, curT
	}
	// Leftover residues in cur (possible only if the loop exited with
	// pending level-0 mass, which cannot happen: l==1 writes to scores) —
	// still, clear defensively so the scratch stays clean across queries.
	for _, v := range curT {
		cur[v] = 0
	}
	sp.rCur, sp.rNxt = cur, nxt
	sp.curTouched, sp.nxtTouched = curT[:0], nxtT[:0]

	scores[qs.u] = 1 // Algorithm 5 line 10
	return nil
}
