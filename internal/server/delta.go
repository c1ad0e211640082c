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

// installCarryForward registers the commit hook on the dynamic source,
// with the affected-set BFS at the engine's own walk-depth bound L*.
// Called once from New.
func (s *Server) installCarryForward() {
	s.engineOpts = s.client.Options()
	s.carryDepth = s.engineOpts.MaxLevelBound()
	// Past half the graph (at startup) most of the cache is affected
	// anyway and the BFS costs graph-sized work for little carried value,
	// so the delta falls back to Total.
	budget := max(int(s.client.Graph().N())/2, 1024)
	s.dyn.SetCommitHook(s.onEpochDelta, s.carryDepth, budget)
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

// carryKeep builds the carry judgment for one delta. The EpochDelta
// contract makes a result from source u bit-identical to a fresh one at
// the new epoch when u is outside the affected set and the query read no
// deeper than the BFS did. Every cached value — a row, a top-k list, a
// pair score — is a function of that one result, so one rule serves every
// kind. The callback runs under a cache shard lock: a map lookup and
// arithmetic only.
func (s *Server) carryKeep(aff map[int32]struct{}) func(cache.Key) bool {
	return func(k cache.Key) bool {
		_, hit := aff[k.Node]
		return !hit && s.paramsCarrySafe(k.Params)
	}
}

// paramsCarrySafe guards per-query ε overrides: the delta BFS ran at the
// engine's L*, so an entry computed with a smaller ε — a deeper walk-depth
// bound — may have read adjacency outside the affected set's coverage and
// must not be carried. The canonical params encoding always leads with
// "eps=<g>" (0 = engine default), so the override is recoverable from the
// key alone.
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
		return true
	}
	opt := s.engineOpts
	opt.Epsilon = eps
	return opt.MaxLevelBound() <= s.carryDepth
}
