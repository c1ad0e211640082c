package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/obs"
)

// newLeaderServer builds a leader over a deterministic test graph.
func newLeaderServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Role = RoleLeader
	dyn := simpush.DynamicFromGraph(testGraph(t))
	cfg.Client = newClient(t, dyn)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newFollowerServer builds a follower of leaderURL over the same base
// graph the leader started from.
func newFollowerServer(t *testing.T, leaderURL string) *Server {
	t.Helper()
	dyn := simpush.DynamicFromGraph(testGraph(t))
	s, err := New(Config{Client: newClient(t, dyn), Role: RoleFollower, LeaderURL: leaderURL})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRepLogCollectAndTrim(t *testing.T) {
	l := newRepLog(3)
	for e := uint64(2); e <= 6; e++ { // epochs 2..6; cap 3 keeps 4,5,6
		l.append(repEntry{Epoch: e})
	}
	if got := len(l.entries); got != 3 {
		t.Fatalf("log len = %d, want 3", got)
	}
	if entries, ok := l.collect(3, 6); !ok || len(entries) != 3 || entries[0].Epoch != 4 {
		t.Fatalf("collect(3) = %v ok=%v, want epochs 4..6", entries, ok)
	}
	if _, ok := l.collect(2, 6); ok {
		t.Fatal("collect(2) must report a trimmed gap (epoch 3 is gone)")
	}
	if entries, ok := l.collect(6, 6); !ok || len(entries) != 0 {
		t.Fatalf("caught-up collect = %v ok=%v, want empty ok", entries, ok)
	}
}

func TestReplicationRoleValidation(t *testing.T) {
	if _, err := New(Config{Client: newClient(t, testGraph(t)), Role: RoleLeader}); err == nil {
		t.Fatal("leader over a static source must be rejected")
	}
	dyn := simpush.DynamicFromGraph(testGraph(t))
	if _, err := New(Config{Client: newClient(t, dyn), Role: RoleFollower}); err == nil {
		t.Fatal("follower without LeaderURL must be rejected")
	}
	if _, err := New(Config{Client: newClient(t, dyn), Role: "observer"}); err == nil {
		t.Fatal("unknown role must be rejected")
	}
}

// TestLeaderMutationIsAtomicAndLogged: a leader batch advances the epoch
// exactly once, reports it in the response, and lands in the feed; an
// invalid batch applies nothing.
func TestLeaderMutationIsAtomicAndLogged(t *testing.T) {
	s := newLeaderServer(t, Config{})

	rec := doReq(s, http.MethodPost, "/v1/edges", `{"edges":[{"from":0,"to":9},{"from":9,"to":0}]}`)
	if rec.Code != 200 {
		t.Fatalf("leader edge batch = %d (%s)", rec.Code, rec.Body)
	}
	body := decodeBody(t, rec)
	if body["epoch"].(float64) != 2 {
		t.Fatalf("batch committed at epoch %v, want 2 (boot=1)", body["epoch"])
	}

	// An unmatched removal rejects the whole batch without mutating.
	rec = doReq(s, http.MethodDelete, "/v1/edges", `{"edges":[{"from":0,"to":9},{"from":7,"to":7}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad removal batch = %d, want 400", rec.Code)
	}
	if epoch := s.dyn.Epoch(); epoch != 2 {
		t.Fatalf("rejected batch advanced epoch to %d", epoch)
	}

	rec = doReq(s, http.MethodGet, "/v1/replication?since=1", "")
	if rec.Code != 200 {
		t.Fatalf("replication feed = %d (%s)", rec.Code, rec.Body)
	}
	feed := decodeBody(t, rec)
	if feed["leader_epoch"].(float64) != 2 {
		t.Fatalf("leader_epoch = %v, want 2", feed["leader_epoch"])
	}
	entries := feed["entries"].([]any)
	if len(entries) != 1 {
		t.Fatalf("feed has %d entries, want 1", len(entries))
	}
}

func TestReplicationFeedOnlyOnLeader(t *testing.T) {
	s, _ := newDynamicServer(t, Config{})
	if rec := doReq(s, http.MethodGet, "/v1/replication?since=0", ""); rec.Code != http.StatusNotImplemented {
		t.Fatalf("standalone replication feed = %d, want 501", rec.Code)
	}
}

func TestReplicationLongPollWakesOnCommit(t *testing.T) {
	s := newLeaderServer(t, Config{})
	done := make(chan map[string]any, 1)
	go func() {
		rec := doReq(s, http.MethodGet, "/v1/replication?since=1&wait=10s", "")
		done <- decodeBody(t, rec)
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	if rec := doReq(s, http.MethodPost, "/v1/edges", `{"from":1,"to":2}`); rec.Code != 200 {
		t.Fatalf("edge add = %d", rec.Code)
	}
	select {
	case feed := <-done:
		if len(feed["entries"].([]any)) != 1 {
			t.Fatalf("long-poll returned %v, want the committed batch", feed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on commit")
	}
}

func TestFollowerRejectsDirectWrites(t *testing.T) {
	f := newFollowerServer(t, "http://leader.invalid")
	rec := doReq(f, http.MethodPost, "/v1/edges", `{"from":0,"to":1}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("write on follower = %d, want 409", rec.Code)
	}
	if body := decodeBody(t, rec); body["code"] != "not_leader" {
		t.Fatalf("code = %v, want not_leader", body["code"])
	}
}

// TestFollowerConvergesToLeader is the end-to-end replication contract:
// mutations on the leader reach the follower, epochs advance
// monotonically to the leader's, and same-epoch scores are bit-identical.
func TestFollowerConvergesToLeader(t *testing.T) {
	leader := newLeaderServer(t, Config{})
	lts := httptest.NewServer(leader.Handler())
	defer lts.Close()

	// Mutate the leader before the follower subscribes, so the follower
	// starts genuinely behind.
	for i := 0; i < 3; i++ {
		rec := doReq(leader, http.MethodPost, "/v1/edges", fmt.Sprintf(`{"from":%d,"to":%d}`, i, i+50))
		if rec.Code != 200 {
			t.Fatalf("leader mutation %d = %d", i, rec.Code)
		}
	}

	follower := newFollowerServer(t, lts.URL)
	if rec := doReq(follower, http.MethodGet, "/healthz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold follower healthz = %d, want 503 catching_up", rec.Code)
	} else if body := decodeBody(t, rec); body["status"] != "catching_up" {
		t.Fatalf("cold follower status = %v, want catching_up", body["status"])
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.StartReplication(ctx)

	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := doReq(follower, http.MethodGet, "/healthz", "")
		if rec.Code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %s", rec.Body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One more leader batch after sync: the long-poll should deliver it
	// promptly and epochs must match exactly.
	rec := doReq(leader, http.MethodPost, "/v1/edges", `{"from":5,"to":99}`)
	if rec.Code != 200 {
		t.Fatalf("post-sync mutation = %d", rec.Code)
	}
	wantEpoch := uint64(decodeBody(t, rec)["epoch"].(float64))
	for follower.dyn.Epoch() != wantEpoch {
		if time.Now().After(deadline) {
			t.Fatalf("follower lag never drained: at %d, leader at %d", follower.dyn.Epoch(), wantEpoch)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Bit-identical same-epoch scores: identical seeded query on both.
	const q = "/v1/single-source?node=1&seed=42&dense=1"
	lrec := doReq(leader, http.MethodGet, q, "")
	frec := doReq(follower, http.MethodGet, q, "")
	if lrec.Code != 200 || frec.Code != 200 {
		t.Fatalf("query: leader=%d follower=%d", lrec.Code, frec.Code)
	}
	lb, fb := decodeBody(t, lrec), decodeBody(t, frec)
	if lb["epoch"].(float64) != fb["epoch"].(float64) {
		t.Fatalf("epoch diverged: leader=%v follower=%v", lb["epoch"], fb["epoch"])
	}
	ls, fs := lb["dense_scores"].([]any), fb["dense_scores"].([]any)
	if len(ls) != len(fs) {
		t.Fatalf("score lengths diverge: %d vs %d", len(ls), len(fs))
	}
	for i := range ls {
		if ls[i].(float64) != fs[i].(float64) {
			t.Fatalf("scores diverge at node %d: %v vs %v", i, ls[i], fs[i])
		}
	}

	// The probe surfaces reflect the steady state.
	if h := decodeBody(t, doReq(follower, http.MethodGet, "/healthz", "")); h["role"] != "follower" ||
		h["lag"] != float64(0) || h["epoch"] != float64(wantEpoch) {
		t.Fatalf("follower healthz = %v, want role=follower lag=0 epoch=%d", h, wantEpoch)
	}
	if metric(t, scrape(t, follower), "simrankd_replication_synced", nil) != 1 {
		t.Fatal("synced follower reports simrankd_replication_synced 0")
	}
	if h := decodeBody(t, doReq(leader, http.MethodGet, "/healthz", "")); h["role"] != "leader" || h["lag"] != float64(0) {
		t.Fatalf("leader healthz = %v, want role=leader lag=0", h)
	}
	leader.rep.log.mu.Lock()
	logLen := len(leader.rep.log.entries)
	leader.rep.log.mu.Unlock()
	if logLen != 4 {
		t.Fatalf("leader log holds %d batches, want 4", logLen)
	}
}

// TestFollowerBehindTrimmedLogDiverges: a follower asking for history the
// bounded log no longer holds gets 410 and marks itself diverged (503
// from /healthz) instead of serving quietly stale data as healthy.
func TestFollowerBehindTrimmedLogDiverges(t *testing.T) {
	leader := newLeaderServer(t, Config{ReplicationLog: 2})
	lts := httptest.NewServer(leader.Handler())
	defer lts.Close()
	for i := 0; i < 5; i++ { // epochs 2..6; log keeps 5,6
		rec := doReq(leader, http.MethodPost, "/v1/edges", fmt.Sprintf(`{"from":%d,"to":%d}`, i, i+40))
		if rec.Code != 200 {
			t.Fatalf("mutation %d = %d", i, rec.Code)
		}
	}
	follower := newFollowerServer(t, lts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.StartReplication(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for !follower.rep.diverged.Load() {
		if time.Now().After(deadline) {
			t.Fatal("follower behind a trimmed log never marked itself diverged")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := doReq(follower, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable || decodeBody(t, rec)["status"] != "diverged" {
		t.Fatalf("diverged follower healthz = %d %s, want 503 diverged", rec.Code, rec.Body)
	}
}

// TestHealthzReplicationFields: every role's /healthz names the role,
// epoch, graph size, lag and in-flight work the proxy's prober routes
// by; only replicated roles expose the replication gauges on /metricsz.
func TestHealthzReplicationFields(t *testing.T) {
	s, _ := newDynamicServer(t, Config{})
	h := decodeBody(t, doReq(s, http.MethodGet, "/healthz", ""))
	if h["status"] != "ok" || h["role"] != "standalone" || h["lag"] != float64(0) ||
		h["n"] != float64(testGraph(t).N()) || h["in_flight"] != float64(0) {
		t.Fatalf("standalone healthz = %v", h)
	}
	if _, ok := obs.FindSample(scrape(t, s), "simrankd_replication_lag", nil); ok {
		t.Fatal("standalone /metricsz has replication gauges")
	}
	l := newLeaderServer(t, Config{})
	if h := decodeBody(t, doReq(l, http.MethodGet, "/healthz", "")); h["role"] != "leader" || h["epoch"] != float64(1) {
		t.Fatalf("leader healthz = %v, want role=leader at the base epoch 1", h)
	}
	if metric(t, scrape(t, l), "simrankd_replication_lag", nil) != 0 {
		t.Fatal("leader reports nonzero replication lag")
	}
}
