package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Role selects a simrankd's position in a replicated cluster.
//
// A leader applies every /v1/edges batch atomically (one batch = exactly
// one epoch advance) and records it in a bounded in-memory mutation log
// served at GET /v1/replication. A follower rejects direct writes and
// instead long-polls a leader's log, replaying each batch through the
// same atomic primitive — because both sides start from the same base
// graph and apply identical batches in identical order, their (graph,
// epoch) sequences are bit-identical, which is what lets a router treat
// "same epoch" as "same answers".
type Role string

const (
	// RoleStandalone is the default single-process mode: mutations apply
	// lazily (buffered until the next snapshot), no replication endpoints.
	RoleStandalone Role = "standalone"
	// RoleLeader serves the replication feed and applies writes eagerly.
	RoleLeader Role = "leader"
	// RoleFollower replays a leader's feed and rejects direct writes.
	RoleFollower Role = "follower"
)

// repEntry is one committed mutation batch: the edges applied and the
// epoch the batch committed at on the leader.
type repEntry struct {
	Epoch  uint64     `json:"epoch"`
	Add    [][2]int32 `json:"add,omitempty"`
	Remove [][2]int32 `json:"remove,omitempty"`
}

// replicationResponse is the GET /v1/replication payload.
type replicationResponse struct {
	Role        Role       `json:"role"`
	LeaderEpoch uint64     `json:"leader_epoch"`
	Entries     []repEntry `json:"entries"`
}

// repLog is the leader's bounded in-memory mutation log. Entries hold
// strictly increasing epochs; when the log overflows its capacity the
// oldest entries are dropped, after which a follower further behind than
// the retained window cannot catch up incrementally (it gets 410 Gone
// and must restart from the leader's base graph).
type repLog struct {
	mu      sync.Mutex
	cap     int
	entries []repEntry
	trimmed bool
	wake    chan struct{} // closed and replaced on every append
}

func newRepLog(capacity int) *repLog {
	return &repLog{cap: capacity, wake: make(chan struct{})}
}

func (l *repLog) append(e repEntry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	if len(l.entries) > l.cap {
		drop := len(l.entries) - l.cap
		l.entries = append(l.entries[:0], l.entries[drop:]...)
		l.trimmed = true
	}
	close(l.wake)
	l.wake = make(chan struct{})
	l.mu.Unlock()
}

// wait returns a channel closed at the next append.
func (l *repLog) wait() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wake
}

// collect returns the entries with epoch > since, in order. ok is false
// when the log no longer reaches back to since+1 — the caller is behind
// the retained window and cannot be served incrementally.
func (l *repLog) collect(since, leaderEpoch uint64) (out []repEntry, ok bool) {
	if since >= leaderEpoch {
		return nil, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	first := leaderEpoch + 1 // log empty: nothing needed below leaderEpoch+1
	if len(l.entries) > 0 {
		first = l.entries[0].Epoch
	}
	if since+1 < first {
		return nil, false
	}
	for _, e := range l.entries {
		if e.Epoch > since {
			out = append(out, e)
		}
	}
	return out, true
}

// replication is the server's role-dependent replication state.
type replication struct {
	role      Role
	log       *repLog // leader only
	leaderURL string  // follower only

	leaderEpoch atomicMaxU64 // follower: highest leader epoch seen
	syncTarget  atomicMaxU64 // follower: leader epoch at subscribe time
	synced      atomic.Bool
	diverged    atomic.Bool

	errMu   sync.Mutex
	lastErr string
}

func (r *replication) setErr(err error) {
	r.errMu.Lock()
	r.lastErr = err.Error()
	r.errMu.Unlock()
}

func (r *replication) lastError() string {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.lastErr
}

// lag is how many epochs a follower trails the highest leader epoch it
// has seen; 0 on every other role.
func (s *Server) lag() uint64 {
	if s.rep.role != RoleFollower {
		return 0
	}
	applied := s.dyn.Epoch()
	if leader := s.rep.leaderEpoch.Load(); leader > applied {
		return leader - applied
	}
	return 0
}

// applyLeaderBatch commits one mutation batch on a leader: apply + epoch
// advance + log append happen in one critical section, so the log's entry
// order always matches the epoch order followers will replay.
func (s *Server) applyLeaderBatch(adds, removes [][2]int32) (uint64, error) {
	s.mutMu.Lock()
	_, epoch, err := s.dyn.ApplyEdges(adds, removes)
	if err == nil {
		s.rep.log.append(repEntry{Epoch: epoch, Add: adds, Remove: removes})
	}
	s.mutMu.Unlock()
	if err != nil {
		return 0, err
	}
	s.noteEpoch(epoch)
	return epoch, nil
}

// maxReplicationWait caps the ?wait long-poll parameter.
const maxReplicationWait = 55 * time.Second

// GET /v1/replication?since=epoch&wait=duration — the leader's mutation
// feed. Returns every logged batch with epoch > since; with wait > 0 and
// nothing to send, blocks until a batch commits or the wait expires
// (returning an empty entry list, which doubles as a leader heartbeat).
func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	if s.rep.role != RoleLeader {
		s.writeError(w, httpErrf(http.StatusNotImplemented, "not_leader",
			"replication feed is only served by a leader (role=%s)", s.role()))
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, httpErrf(http.StatusBadRequest, "bad_parameter", "since: %v", err))
			return
		}
		since = u
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeError(w, httpErrf(http.StatusBadRequest, "bad_parameter", "wait: must be a non-negative duration"))
			return
		}
		if d > maxReplicationWait {
			d = maxReplicationWait
		}
		wait = d
	}

	deadline := time.Now().Add(wait)
	for {
		wake := s.rep.log.wait()
		leaderEpoch := s.dyn.Epoch()
		entries, ok := s.rep.log.collect(since, leaderEpoch)
		if !ok {
			s.writeError(w, httpErrf(http.StatusGone, "log_trimmed",
				"replication log no longer reaches epoch %d (oldest retained batch is newer); restart the follower from the leader's base graph", since))
			return
		}
		remaining := time.Until(deadline)
		if len(entries) > 0 || remaining <= 0 {
			writeJSON(w, http.StatusOK, replicationResponse{
				Role: RoleLeader, LeaderEpoch: leaderEpoch, Entries: entries,
			})
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// role returns the server's replication role (RoleStandalone when
// replication is off).
func (s *Server) role() Role {
	if s.rep.role == "" {
		return RoleStandalone
	}
	return s.rep.role
}

// atomicMaxU64 is a monotonic uint64: Raise only ever increases it.
type atomicMaxU64 struct{ v atomic.Uint64 }

func (a *atomicMaxU64) Load() uint64 { return a.v.Load() }
func (a *atomicMaxU64) Raise(x uint64) {
	for {
		old := a.v.Load()
		if old >= x || a.v.CompareAndSwap(old, x) {
			return
		}
	}
}

func validateRole(r Role) error {
	switch r {
	case "", RoleStandalone, RoleLeader, RoleFollower:
		return nil
	}
	return fmt.Errorf("server: unknown role %q (want leader, follower or standalone)", r)
}
