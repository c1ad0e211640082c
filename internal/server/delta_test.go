package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/obs"
)

// clusteredDyn builds `clusters` disconnected directed rings of `size`
// nodes each. Disconnection is the point: a mutation inside one cluster
// has an affected set confined to that cluster, so entries for every
// other cluster are provably carriable — the geometry the carry-forward
// path exists for. (A well-connected 300-node web graph is covered
// entirely by the depth-L* BFS, which degenerates to drop-everything.)
func clusteredDyn(t *testing.T, clusters, size int32) *simpush.DynamicGraph {
	t.Helper()
	dyn := simpush.NewDynamicGraph(clusters*size, int(clusters*size)*2)
	for c := int32(0); c < clusters; c++ {
		base := c * size
		for i := int32(0); i < size; i++ {
			if err := dyn.AddEdge(base+i, base+(i+1)%size); err != nil {
				t.Fatal(err)
			}
		}
		// Hub edges give every in-cluster pair a shared in-neighbor and
		// hence positive SimRank, so top-k support stays inside the
		// cluster (a bare ring has all-zero off-diagonal scores, and
		// TopK would pad with zero-score nodes from other clusters).
		for i := int32(2); i < size; i++ {
			if err := dyn.AddEdge(base, base+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dyn
}

func newClusteredServer(t *testing.T, cfg Config) (*Server, *simpush.DynamicGraph) {
	t.Helper()
	dyn := clusteredDyn(t, 12, 25)
	cfg.Client = newClient(t, dyn)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dyn
}

// TestCarryForwardBitIdenticalProperty is the tentpole property test:
// across a randomized mutation sequence, every response served after
// carry-forward — hit, carried or computed — must be bit-identical to a
// fresh engine computation on the committed graph at that epoch. Run
// under -race, with each round's queries issued concurrently so the
// commit hook races real request traffic.
func TestCarryForwardBitIdenticalProperty(t *testing.T) {
	const clusters, size = int32(12), int32(25)
	// Room for the whole sample at once: admission must not 429 the
	// concurrent rounds (GOMAXPROCS-derived defaults are too small under
	// -race on small machines).
	s, dyn := newClusteredServer(t, Config{MaxInFlight: int(clusters), MaxQueue: int(clusters)})
	rng := rand.New(rand.NewSource(41))

	// One sample node per cluster, queried with a fixed seed so engine
	// runs are deterministic and bit-comparison is meaningful.
	sample := make([]int32, clusters)
	for c := int32(0); c < clusters; c++ {
		sample[c] = c*size + rng.Int31n(size)
	}
	var added [][2]int32 // standalone-applied edges eligible for removal

	hits := 0
	for round := 0; round < 5; round++ {
		if round > 0 {
			// Random mutation in a random cluster: add a chord, or remove
			// a previously added one.
			if len(added) > 0 && rng.Intn(3) == 0 {
				e := added[len(added)-1]
				added = added[:len(added)-1]
				rec := doReq(s, "DELETE", "/v1/edges", fmt.Sprintf(`{"from":%d,"to":%d}`, e[0], e[1]))
				if rec.Code != 200 {
					t.Fatalf("round %d delete: %d %s", round, rec.Code, rec.Body.String())
				}
			} else {
				c := rng.Int31n(clusters)
				e := [2]int32{c*size + rng.Int31n(size), c*size + rng.Int31n(size)}
				rec := doReq(s, "POST", "/v1/edges", fmt.Sprintf(`{"from":%d,"to":%d}`, e[0], e[1]))
				if rec.Code != 200 {
					t.Fatalf("round %d add: %d %s", round, rec.Code, rec.Body.String())
				}
				added = append(added, e)
			}
		}

		// Fire the whole sample concurrently; the first arrivals race the
		// lazy rebuild (and its carry-forward hook) against each other.
		recs := make([]*httptest.ResponseRecorder, len(sample))
		var wg sync.WaitGroup
		for i, node := range sample {
			wg.Add(1)
			go func(i int, node int32) {
				defer wg.Done()
				recs[i] = doReq(s, "GET", fmt.Sprintf("/v1/single-source?node=%d&seed=11&dense=1", node), "")
			}(i, node)
		}
		wg.Wait()
		bodies := make([]map[string]any, len(sample))
		for i, rec := range recs {
			if rec.Code != 200 {
				t.Fatalf("node %d: %d %s", sample[i], rec.Code, rec.Body.String())
			}
			bodies[i] = decodeBody(t, rec)
		}

		// Fresh oracle: an independent client on the committed snapshot.
		snap, epoch, err := dyn.SnapshotEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fresh := newClient(t, snap)
		for i, node := range sample {
			body := bodies[i]
			if got := uint64(body["epoch"].(float64)); got != epoch {
				t.Fatalf("round %d node %d pinned epoch %d, want %d", round, node, got, epoch)
			}
			if round > 0 && body["cache"] == "hit" {
				hits++
			}
			res, err := fresh.SingleSource(context.Background(), node, simpush.WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			served := body["dense_scores"].([]any)
			if len(served) != len(res.Scores) {
				t.Fatalf("round %d node %d: served %d scores, fresh %d", round, node, len(served), len(res.Scores))
			}
			for v := range res.Scores {
				if served[v].(float64) != res.Scores[v] {
					t.Fatalf("round %d node %d: served s(%d,%d)=%v, fresh computation %v — carried entry is not bit-identical",
						round, node, node, v, served[v], res.Scores[v])
				}
			}
		}
	}

	st := s.Cache().Stats()
	if st.Carried == 0 {
		t.Fatalf("no entries were ever carried across an epoch (stats %+v) — the property was tested vacuously", st)
	}
	if hits == 0 {
		t.Fatal("no post-mutation request was served from a carried entry")
	}
}

// TestSweepOrderingKeepsCarriedEntries is the regression test for the
// carry/sweep race: the epoch-advance Sweep must run after carry-forward
// and must never reclaim a just-carried entry. If the order ever
// inverted (sweep at the new epoch before entries are re-stamped), the
// final request here would come back "computed".
func TestSweepOrderingKeepsCarriedEntries(t *testing.T) {
	s, _ := newClusteredServer(t, Config{})
	const witness = 30 // cluster 1; mutations stay in cluster 0

	if got := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=30&seed=4", ""))["cache"]; got != "computed" {
		t.Fatalf("first query = %v", got)
	}
	rec := doReq(s, "POST", "/v1/edges", `{"from":0,"to":12}`)
	if rec.Code != 200 {
		t.Fatalf("edges: %d %s", rec.Code, rec.Body.String())
	}
	// This query commits the new epoch (rebuild + carry, both before the
	// epoch is visible) and then triggers noteEpoch's Sweep at the new
	// epoch — with the witness entry carried but not yet re-requested.
	other := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=55&seed=4", ""))
	if other["cache"] != "computed" {
		t.Fatalf("post-mutation probe = %v, want computed", other["cache"])
	}
	after := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=30&seed=4", ""))
	if after["cache"] != "hit" {
		t.Fatalf("carried witness = %v, want hit (sweep must not reclaim carried entries)", after["cache"])
	}
	if after["epoch"].(float64) == other["epoch"].(float64)-1 {
		t.Fatal("witness served at the old epoch")
	}
	if st := s.Cache().Stats(); st.Carried == 0 {
		t.Fatalf("stats %+v: nothing carried", st)
	}
}

// Mutated-cluster entries must drop; per-query ε overrides deeper than
// the delta BFS must refuse to carry, shallower ones may.
func TestCarryRespectsAffectedSetAndEpsOverrides(t *testing.T) {
	s, _ := newClusteredServer(t, Config{})
	for _, q := range []string{
		"/v1/single-source?node=3&seed=2",           // cluster 0: will be affected
		"/v1/single-source?node=28&seed=2",          // cluster 1: carriable
		"/v1/single-source?node=53&seed=2&eps=0.01", // deeper L* than the delta BFS
		"/v1/single-source?node=78&seed=2&eps=0.1",  // shallower L*: still carriable
		"/v1/pair?u=103&v=110&seed=2",               // cluster 4 pair: carriable
		"/v1/pair?u=128&v=3&seed=2",                 // target in the mutated cluster: drop
		"/v1/topk?node=153&k=5&seed=2",              // cluster 6 topk: support stays in-cluster
	} {
		if rec := doReq(s, "GET", q, ""); rec.Code != 200 {
			t.Fatalf("%s: %d %s", q, rec.Code, rec.Body.String())
		}
	}
	if rec := doReq(s, "POST", "/v1/edges", `{"from":0,"to":12}`); rec.Code != 200 {
		t.Fatalf("edges: %d %s", rec.Code, rec.Body.String())
	}
	cases := []struct {
		query string
		want  string
	}{
		{"/v1/single-source?node=3&seed=2", "computed"},
		{"/v1/single-source?node=28&seed=2", "hit"},
		{"/v1/single-source?node=53&seed=2&eps=0.01", "computed"},
		{"/v1/single-source?node=78&seed=2&eps=0.1", "hit"},
		{"/v1/pair?u=103&v=110&seed=2", "hit"},
		{"/v1/pair?u=128&v=3&seed=2", "computed"},
		{"/v1/topk?node=153&k=5&seed=2", "hit"},
	}
	for _, tc := range cases {
		body := decodeBody(t, doReq(s, "GET", tc.query, ""))
		if body["cache"] != tc.want {
			t.Errorf("%s after mutation: cache = %v, want %v", tc.query, body["cache"], tc.want)
		}
	}
}

func TestCarryForwardDisabled(t *testing.T) {
	s, _ := newClusteredServer(t, Config{DisableCarryForward: true})
	doReq(s, "GET", "/v1/single-source?node=30&seed=4", "")
	if rec := doReq(s, "POST", "/v1/edges", `{"from":0,"to":12}`); rec.Code != 200 {
		t.Fatalf("edges: %d %s", rec.Code, rec.Body.String())
	}
	body := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=30&seed=4", ""))
	if body["cache"] != "computed" {
		t.Fatalf("with carry disabled, post-mutation query = %v, want computed", body["cache"])
	}
	if _, ok := obs.FindSample(scrape(t, s), "simrankd_delta_commits_total", nil); ok {
		t.Fatal("/metricsz reports delta counters with carry-forward disabled")
	}
}

// The leader mutation path commits eagerly inside the request — the
// carry must happen there, not at the next query.
func TestLeaderMutationCarriesCache(t *testing.T) {
	s, _ := newClusteredServer(t, Config{Role: RoleLeader})
	if got := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=30&seed=4", ""))["cache"]; got != "computed" {
		t.Fatalf("first query = %v", got)
	}
	if rec := doReq(s, "POST", "/v1/edges", `{"from":0,"to":12}`); rec.Code != 200 {
		t.Fatalf("edges: %d %s", rec.Code, rec.Body.String())
	}
	// The commit already happened inside the POST: the carried entry is
	// reachable at the new epoch with no further rebuild in between.
	body := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=30&seed=4", ""))
	if body["cache"] != "hit" {
		t.Fatalf("post-commit query = %v, want hit from the carried entry", body["cache"])
	}
	samples := scrape(t, s)
	if metric(t, samples, "simrankd_delta_commits_total", nil) == 0 ||
		metric(t, samples, "simrankd_cache_carried_total", nil) == 0 {
		t.Fatal("/metricsz shows no delta commit or carried entry after a leader write")
	}
}

func TestMetricszExposesDeltaCounters(t *testing.T) {
	s, _ := newClusteredServer(t, Config{})
	doReq(s, "GET", "/v1/single-source?node=30&seed=4", "")
	// A removal of a never-existing edge: lazily discarded, surfaced as a
	// counted no-op. Exactly one query pays the snapshot error.
	if rec := doReq(s, "DELETE", "/v1/edges", `{"from":3,"to":7}`); rec.Code != 200 {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	if rec := doReq(s, "GET", "/v1/single-source?node=30&seed=4", ""); rec.Code != 500 {
		t.Fatalf("query after bad removal = %d, want the one-time snapshot error", rec.Code)
	}
	if rec := doReq(s, "GET", "/v1/single-source?node=55&seed=4", ""); rec.Code != 200 {
		t.Fatalf("recovery query = %d %s", rec.Code, rec.Body.String())
	}

	samples := scrape(t, s)
	if got := metric(t, samples, "simrankd_graph_discarded_deletions_total", nil); got != 1 {
		t.Fatalf("graph_discarded_deletions_total = %v, want 1", got)
	}
	if got := metric(t, samples, "simrankd_delta_commits_total", nil); got == 0 {
		t.Fatal("delta_commits_total = 0 after a committed removal")
	}

	metrics := doReq(s, "GET", "/metricsz", "").Body.String()
	for _, series := range []string{
		"simrankd_cache_carried_total",
		"simrankd_cache_carry_dropped_total",
		"simrankd_delta_affected_nodes",
		"simrankd_delta_commits_total",
		"simrankd_delta_total_fallbacks_total",
		"simrankd_graph_discarded_deletions_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metricsz missing %s", series)
		}
	}
}
