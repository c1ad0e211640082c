package graph

import (
	"fmt"
	"sync"
)

// Dynamic is a mutable directed graph that supports the evolving-graph
// scenario motivating index-free SimRank (paper §1): edges arrive and
// depart continuously, and queries must always see the newest state.
//
// Mutations are buffered; Snapshot materializes an immutable CSR Graph,
// rebuilding lazily and amortized — repeated Snapshot calls without
// intervening mutations return the same *Graph, so query engines can be
// constructed directly on the result. Every materialized snapshot is
// stamped with a monotonically increasing epoch (SnapshotEpoch); the
// epoch only advances when a rebuild actually observes new mutations, so
// it identifies distinct committed graph states. All methods are safe for
// concurrent use.
type Dynamic struct {
	mu      sync.Mutex
	n       int32
	froms   []int32
	tos     []int32
	deleted map[[2]int32]int // pending deletion counts per edge
	snap    *Graph           // cached snapshot; nil when dirty
	epoch   uint64           // epoch of the cached snapshot; bumped per rebuild

	// prev is the most recently materialized snapshot regardless of
	// dirtiness — the "old" side of the next epoch delta.
	prev *Graph
	// pendEndpoints collects the endpoints of every edge mutated since
	// the last committed snapshot; they seed the affected-set BFS.
	pendEndpoints []int32
	// discardedDeletions counts RemoveEdge calls for never-existing edges
	// that a rebuild discarded after reporting the error once — silent
	// no-ops from the caller's perspective, surfaced via /metricsz.
	discardedDeletions uint64

	hook       func(EpochDelta) // commit hook; see SetCommitHook
	hookDepth  int
	hookBudget int
}

// NewDynamic returns an empty dynamic graph. nHint reserves node ids
// [0, nHint) up front (exactly like AddNode(nHint)), and mHint presizes
// the edge buffer, so a caller that knows the eventual size pays no
// regrowth during the initial load.
func NewDynamic(nHint int32, mHint int) *Dynamic {
	if nHint < 0 {
		nHint = 0
	}
	if mHint < 0 {
		mHint = 0
	}
	return &Dynamic{
		froms:   make([]int32, 0, mHint),
		tos:     make([]int32, 0, mHint),
		deleted: map[[2]int32]int{},
		n:       nHint,
	}
}

// FromGraph seeds a dynamic graph with an existing immutable graph.
func FromGraph(g *Graph) *Dynamic {
	d := NewDynamic(g.N(), int(g.M()))
	g.Edges(func(f, t int32) {
		d.froms = append(d.froms, f)
		d.tos = append(d.tos, t)
	})
	return d
}

// AddEdge inserts a directed edge; node range grows as needed.
func (d *Dynamic) AddEdge(from, to int32) error {
	if from < 0 || to < 0 {
		return fmt.Errorf("graph: negative node id (%d, %d)", from, to)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.froms = append(d.froms, from)
	d.tos = append(d.tos, to)
	if from >= d.n {
		d.n = from + 1
	}
	if to >= d.n {
		d.n = to + 1
	}
	d.pendEndpoints = append(d.pendEndpoints, from, to)
	d.snap = nil
	return nil
}

// RemoveEdge marks one occurrence of (from, to) for deletion. Validation
// is deferred: removing an edge that does not exist is reported as an
// error by the next Snapshot, which then discards the unmatched deletion —
// exactly one snapshot fails and the source recovers, so a long-lived
// Client serving this graph is never permanently poisoned by a bad (or
// raced) removal.
func (d *Dynamic) RemoveEdge(from, to int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deleted[[2]int32{from, to}]++
	d.pendEndpoints = append(d.pendEndpoints, from, to)
	d.snap = nil
}

// AddNode reserves node ids up to n-1 even if isolated.
func (d *Dynamic) AddNode(n int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > d.n {
		d.n = n
	}
	d.snap = nil
}

// PendingEdges returns the count of buffered edge insertions (before
// deletions are applied).
func (d *Dynamic) PendingEdges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.froms)
}

// Snapshot materializes the current graph. The rebuild applies pending
// deletions, compacts the edge buffer and caches the result until the
// next mutation.
func (d *Dynamic) Snapshot() (*Graph, error) {
	g, _, err := d.SnapshotEpoch()
	return g, err
}

// Epoch returns the epoch of the most recently materialized snapshot.
// Epochs start at 0 (nothing materialized yet) and advance by one each
// time a Snapshot observes mutations; a Snapshot that hits the cache
// keeps its epoch. Pending, not-yet-snapshotted mutations do not advance
// the epoch — it versions committed states only.
func (d *Dynamic) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// GraphSnapshot materializes the current graph together with its epoch,
// implementing the root package's GraphSource interface.
func (d *Dynamic) GraphSnapshot() (*Graph, uint64, error) {
	return d.SnapshotEpoch()
}

// SnapshotEpoch is Snapshot plus the snapshot's epoch stamp. The pair is
// consistent: the returned graph is exactly the state committed at the
// returned epoch, even under concurrent mutation.
func (d *Dynamic) SnapshotEpoch() (*Graph, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.snap != nil {
		return d.snap, d.epoch, nil
	}
	return d.rebuildLocked()
}

// rebuildLocked materializes a fresh snapshot with d.mu held.
func (d *Dynamic) rebuildLocked() (*Graph, uint64, error) {
	if len(d.deleted) > 0 {
		// Validate before mutating: every pending deletion must match an
		// existing buffered edge. An unmatched deletion fails this one
		// rebuild, but its excess is dropped so the next Snapshot recovers
		// — a bad removal must not poison the source forever.
		avail := make(map[[2]int32]int, len(d.deleted))
		for i := range d.froms {
			key := [2]int32{d.froms[i], d.tos[i]}
			if _, tracked := d.deleted[key]; tracked {
				avail[key]++
			}
		}
		var badKey [2]int32
		bad := false
		for key, cnt := range d.deleted {
			if avail[key] < cnt {
				if !bad {
					badKey, bad = key, true
				}
				d.discardedDeletions += uint64(cnt - avail[key])
				if avail[key] == 0 {
					delete(d.deleted, key)
				} else {
					d.deleted[key] = avail[key]
				}
			}
		}
		if bad {
			return nil, 0, fmt.Errorf("graph: removing nonexistent edge (%d, %d)", badKey[0], badKey[1])
		}
		ff := d.froms[:0]
		tt := d.tos[:0]
		for i := range d.froms {
			key := [2]int32{d.froms[i], d.tos[i]}
			if cnt := d.deleted[key]; cnt > 0 {
				d.deleted[key] = cnt - 1
				continue
			}
			ff = append(ff, d.froms[i])
			tt = append(tt, d.tos[i])
		}
		for key := range d.deleted {
			delete(d.deleted, key)
		}
		d.froms, d.tos = ff, tt
	}
	g, err := fromEdges(d.n, d.froms, d.tos)
	if err != nil {
		return nil, 0, err
	}
	old, oldEpoch := d.prev, d.epoch
	endpoints := d.pendEndpoints
	d.snap, d.prev = g, g
	d.pendEndpoints = nil
	d.epoch++
	if d.hook != nil {
		// The hook runs with d.mu held: no concurrent SnapshotEpoch can
		// observe the new epoch until it returns, so a cache carry-forward
		// inside the hook completes before any request can pin (and sweep
		// at) the new epoch.
		d.hook(d.buildDeltaLocked(old, g, oldEpoch, endpoints))
	}
	return g, d.epoch, nil
}

// buildDeltaLocked assembles the EpochDelta for one committed rebuild.
// Total is raised when there is no previous snapshot to diff against,
// when the node count changed (cached dense rows have the wrong length),
// or when the affected frontier exceeds the configured budget.
func (d *Dynamic) buildDeltaLocked(old, g *Graph, oldEpoch uint64, endpoints []int32) EpochDelta {
	delta := EpochDelta{FromEpoch: oldEpoch, ToEpoch: d.epoch}
	if old == nil || old.N() != g.N() {
		delta.Total = true
		return delta
	}
	affected, ok := AffectedNodes(old, g, endpoints, d.hookDepth, d.hookBudget)
	if !ok {
		delta.Total = true
		return delta
	}
	delta.Affected = affected
	return delta
}

// SetCommitHook registers fn to run on every committed epoch advance,
// with the delta between the superseded and the new snapshot. depth is
// the affected-set BFS depth (the engine's walk-depth truncation bound
// L*); budget caps the affected set's size, beyond which the delta falls
// back to Total (budget <= 0 = unbounded).
//
// The hook runs with the graph's mutex held, after the new snapshot is
// materialized but before its epoch is observable through SnapshotEpoch —
// the window in which a serving cache can re-key entries without racing
// requests that pin the new epoch. The hook must be fast and must not
// call back into the Dynamic. At most one hook is supported; nil
// unregisters.
func (d *Dynamic) SetCommitHook(fn func(EpochDelta), depth, budget int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = fn
	d.hookDepth = depth
	d.hookBudget = budget
}

// DiscardedDeletions returns how many RemoveEdge calls named an edge that
// never existed and were discarded by a rebuild after failing exactly one
// snapshot. The count surfaces silent no-ops to operators: the error is
// reported once on the failing snapshot and the source then recovers, so
// without this counter a steady trickle of bad removals is invisible.
func (d *Dynamic) DiscardedDeletions() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.discardedDeletions
}

// ApplyEdges applies one batch of insertions and removals atomically and
// materializes the resulting snapshot before returning: the batch commits
// as exactly one epoch advance, with no concurrent Snapshot observing a
// half-applied state. This is the replication primitive — a leader and a
// follower that start from the same graph and apply the same batches in
// the same order walk through identical (graph, epoch) sequences.
//
// Unlike AddEdge/RemoveEdge, validation is eager and all-or-nothing:
// negative node ids or a removal without a matching edge (counting this
// batch's insertions, net of deletions already pending) reject the whole
// batch without mutating anything, so a bad batch can never leave the two
// sides of a replication stream in different states.
func (d *Dynamic) ApplyEdges(adds, removes [][2]int32) (*Graph, uint64, error) {
	for _, e := range adds {
		if e[0] < 0 || e[1] < 0 {
			return nil, 0, fmt.Errorf("graph: negative node id (%d, %d)", e[0], e[1])
		}
	}
	for _, e := range removes {
		if e[0] < 0 || e[1] < 0 {
			return nil, 0, fmt.Errorf("graph: negative node id (%d, %d)", e[0], e[1])
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(removes) > 0 {
		need := make(map[[2]int32]int, len(removes))
		for _, e := range removes {
			need[e]++
		}
		avail := make(map[[2]int32]int, len(need))
		for i := range d.froms {
			key := [2]int32{d.froms[i], d.tos[i]}
			if _, tracked := need[key]; tracked {
				avail[key]++
			}
		}
		for _, e := range adds {
			if _, tracked := need[e]; tracked {
				avail[e]++
			}
		}
		for key, cnt := range need {
			if avail[key]-d.deleted[key] < cnt {
				return nil, 0, fmt.Errorf("graph: removing nonexistent edge (%d, %d)", key[0], key[1])
			}
		}
	}
	for _, e := range adds {
		d.froms = append(d.froms, e[0])
		d.tos = append(d.tos, e[1])
		if e[0] >= d.n {
			d.n = e[0] + 1
		}
		if e[1] >= d.n {
			d.n = e[1] + 1
		}
		d.pendEndpoints = append(d.pendEndpoints, e[0], e[1])
	}
	for _, e := range removes {
		d.deleted[e]++
		d.pendEndpoints = append(d.pendEndpoints, e[0], e[1])
	}
	d.snap = nil
	return d.rebuildLocked()
}
