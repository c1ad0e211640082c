package server

import (
	"strconv"
	"strings"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/cache"
)

// This file wires graph epoch deltas into cache carry-forward: the
// dynamic source's commit hook delivers the affected-node set of every
// committed mutation batch, and the server re-keys all cache entries the
// mutation provably cannot have changed to the new epoch — instead of
// letting the epoch advance orphan the entire cache.
//
// The hook runs with the graph's mutex held, before the new epoch is
// observable by any request, so a request can never pin the new epoch
// (and trigger noteEpoch's Sweep) while carry-forward is still running:
// Sweep(new) then sees carried entries already stamped with the new
// epoch and leaves them alone. That ordering is the whole correctness
// story for the sweep/carry race — there is no window in which a
// just-carried entry is sweepable.

// installCarryForward resolves the delta depth and budget and registers
// the commit hook on the dynamic source. Called once from New.
func (s *Server) installCarryForward() {
	s.engineOpts = s.client.Options()
	depth := s.cfg.DeltaDepth
	if depth <= 0 {
		depth = s.engineOpts.MaxLevelBound()
	}
	budget := s.cfg.DeltaBudget
	if budget == 0 {
		// Auto: half the graph (at startup). Past that point most of the
		// cache is affected anyway and the BFS costs graph-sized work for
		// little carried value, so falling back to Total is the better
		// trade.
		budget = int(s.client.Graph().N()) / 2
		if budget < 1024 {
			budget = 1024
		}
	} else if budget < 0 {
		budget = 0 // explicit "unbounded"
	}
	s.deltaDepth = depth
	// An entry computed with the engine-default ε is only safe to carry
	// if the delta BFS ran at least as deep as the engine reads. True
	// unless Config.DeltaDepth was forced below the engine's own bound.
	s.carryDefaultSafe = s.engineOpts.MaxLevelBound() <= depth
	s.dyn.SetCommitHook(s.onEpochDelta, depth, budget)
}

// onEpochDelta is the commit hook: it records the delta counters and
// carries the cache forward across the epoch advance. It runs under the
// graph mutex (see SetCommitHook) and must not call back into the
// dynamic source.
func (s *Server) onEpochDelta(d simpush.EpochDelta) {
	s.deltas.Add(1)
	s.deltaAffectedLast.Store(uint64(len(d.Affected)))
	cd := cache.Delta{FromEpoch: d.FromEpoch, ToEpoch: d.ToEpoch}
	if d.Total {
		s.deltaTotals.Add(1)
		// Nothing is provably unchanged: drop every superseded entry (a
		// nil keep carries none), exactly the pre-carry-forward behavior.
		s.cache.CarryForward(cd, nil)
		return
	}
	aff := make(map[int32]struct{}, len(d.Affected))
	for _, v := range d.Affected {
		aff[v] = struct{}{}
	}
	s.cache.CarryForward(cd, s.carryKeep(aff))
}

// carryKeep builds the per-entry carry judgment for one delta: true only
// if the entry is bit-identical to a fresh computation at the new epoch.
// A single-source result from u is untouched by the mutation iff u is
// outside the affected set (the engine then reads only adjacency,
// in-degrees and walk transitions the mutation did not perturb); pair
// and top-k entries additionally require their target / ranked support
// nodes to be unaffected. The callback runs under a cache shard lock —
// pure map lookups and arithmetic only.
func (s *Server) carryKeep(aff map[int32]struct{}) func(cache.Key, any) bool {
	return func(k cache.Key, v any) bool {
		if !s.paramsCarrySafe(k.Params) {
			return false
		}
		if _, hit := aff[k.Node]; hit {
			return false
		}
		switch k.Kind {
		case "single-source":
			return true
		case "pair":
			_, hit := aff[int32(k.Aux)]
			return !hit
		case "topk":
			rs, ok := v.([]simpush.Ranked)
			if !ok {
				return false
			}
			for _, r := range rs {
				if _, hit := aff[r.Node]; hit {
					return false
				}
			}
			return true
		default:
			// Unknown kinds get no carry until someone audits their read
			// set; dropping is always safe.
			return false
		}
	}
}

// paramsCarrySafe guards per-query ε overrides: the delta BFS ran at
// depth s.deltaDepth, so an entry computed with a smaller ε — a deeper
// walk-depth bound L* — may have read adjacency outside the affected
// set's coverage and must not be carried. The canonical params encoding
// always leads with "eps=<g>" (0 = engine default), so the override is
// recoverable from the key alone.
func (s *Server) paramsCarrySafe(params string) bool {
	const pfx = "eps="
	if !strings.HasPrefix(params, pfx) {
		return false // unknown encoding: refuse rather than guess
	}
	rest := params[len(pfx):]
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		rest = rest[:i]
	}
	eps, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return false
	}
	if eps == 0 {
		return s.carryDefaultSafe
	}
	opt := s.engineOpts
	opt.Epsilon = eps
	return opt.MaxLevelBound() <= s.deltaDepth
}
