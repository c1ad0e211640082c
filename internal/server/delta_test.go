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
)

// clusteredDyn builds `clusters` disconnected directed rings of `size`
// nodes each. Disconnection is the point: a mutation inside one cluster
// has an affected set confined to that cluster, so entries for every
// other cluster are provably carriable — the geometry the carry-forward
// path exists for. (A well-connected 300-node web graph is covered
// entirely by the depth-L* BFS, which degenerates to drop-everything.)
func clusteredDyn(t *testing.T, clusters, size int32) *simpush.DynamicGraph {
	t.Helper()
	var edges [][2]int32
	for c := int32(0); c < clusters; c++ {
		base := c * size
		for i := int32(0); i < size; i++ {
			edges = append(edges, [2]int32{base + i, base + (i+1)%size})
		}
		// Hub edges give every in-cluster pair a shared in-neighbor and
		// hence positive SimRank, so top-k support stays inside the
		// cluster (a bare ring has all-zero off-diagonal scores, and
		// TopK would pad with zero-score nodes from other clusters).
		for i := int32(2); i < size; i++ {
			edges = append(edges, [2]int32{base, base + i})
		}
	}
	dyn := simpush.NewDynamicGraph(clusters*size, len(edges))
	if _, _, err := dyn.ApplyEdges(edges, nil); err != nil {
		t.Fatal(err)
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
// fresh engine computation on the committed graph at that epoch. Each
// sample node is read three ways: its dense row, a pair whose target is
// the next cluster's sample (carried even when only the target's cluster
// mutated), and its top-k. Run under -race, with each round's reads
// issued concurrently.
func TestCarryForwardBitIdenticalProperty(t *testing.T) {
	const clusters, size, rounds, k = int32(12), int32(25), 12, 5
	// Room for every read of a round at once: admission must not 429 the
	// concurrent rounds (GOMAXPROCS-derived defaults are too small under
	// -race on small machines).
	s, dyn := newClusteredServer(t, Config{MaxInFlight: int(3 * clusters), MaxQueue: int(3 * clusters)})
	rng := rand.New(rand.NewSource(41))

	// One sample node per cluster, queried with a fixed seed so engine
	// runs are deterministic and bit-comparison is meaningful.
	sample := make([]int32, clusters)
	for c := int32(0); c < clusters; c++ {
		sample[c] = c*size + rng.Int31n(size)
	}
	target := func(i int) int32 { return sample[(i+1)%len(sample)] }
	queries := func(i int) [3]string {
		return [3]string{
			fmt.Sprintf("/v1/single-source?node=%d&seed=11&dense=1", sample[i]),
			fmt.Sprintf("/v1/pair?u=%d&v=%d&seed=11", sample[i], target(i)),
			fmt.Sprintf("/v1/topk?node=%d&k=%d&seed=11", sample[i], k),
		}
	}
	var added [][2]int32 // standalone-applied edges eligible for removal

	var hits [3]int // post-mutation hits by endpoint, in queries order
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
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

		// Fire every read of the round concurrently; they race each other
		// through the cache lookups of the carried and fresh entries.
		recs := make([][3]*httptest.ResponseRecorder, len(sample))
		var wg sync.WaitGroup
		for i := range sample {
			for j, q := range queries(i) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					recs[i][j] = doReq(s, "GET", q, "")
				}()
			}
		}
		wg.Wait()

		// Fresh oracle: an independent client on the committed snapshot.
		snap, epoch, err := dyn.SnapshotEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fresh := newClient(t, snap)
		for i, node := range sample {
			var bodies [3]map[string]any
			for j, rec := range recs[i] {
				if rec.Code != 200 {
					t.Fatalf("%s: %d %s", queries(i)[j], rec.Code, rec.Body.String())
				}
				bodies[j] = decodeBody(t, rec)
				if got := uint64(bodies[j]["epoch"].(float64)); got != epoch {
					t.Fatalf("round %d %s pinned epoch %d, want %d", round, queries(i)[j], got, epoch)
				}
				if round > 0 && bodies[j]["cache"] == "hit" {
					hits[j]++
				}
			}

			res, err := fresh.SingleSource(ctx, node, simpush.WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			served := bodies[0]["dense_scores"].([]any)
			if len(served) != len(res.Scores) {
				t.Fatalf("round %d node %d: served %d scores, fresh %d", round, node, len(served), len(res.Scores))
			}
			for v := range res.Scores {
				if served[v].(float64) != res.Scores[v] {
					t.Fatalf("round %d node %d: served s(%d,%d)=%v, fresh computation %v — carried entry is not bit-identical",
						round, node, node, v, served[v], res.Scores[v])
				}
			}

			score, err := fresh.Pair(ctx, node, target(i), simpush.WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			if got := bodies[1]["score"].(float64); got != score {
				t.Fatalf("round %d: served s(%d,%d)=%v, fresh Pair %v", round, node, target(i), got, score)
			}

			ranked, err := fresh.TopK(ctx, node, k, simpush.WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			results := bodies[2]["results"].([]any)
			if len(results) != len(ranked) {
				t.Fatalf("round %d node %d: served %d top-k entries, fresh %d", round, node, len(results), len(ranked))
			}
			for r, e := range results {
				entry := e.(map[string]any)
				if int32(entry["node"].(float64)) != ranked[r].Node || entry["score"].(float64) != ranked[r].Score {
					t.Fatalf("round %d node %d: served top-k #%d %v, fresh TopK %+v", round, node, r, entry, ranked[r])
				}
			}
		}
	}

	st := s.Cache().Stats()
	if st.Carried == 0 {
		t.Fatalf("no entries were ever carried across an epoch (stats %+v) — the property was tested vacuously", st)
	}
	for j, endpoint := range []string{"single-source", "pair", "topk"} {
		if hits[j] == 0 {
			t.Fatalf("no post-mutation %s request was served from a carried entry", endpoint)
		}
	}
	t.Logf("post-mutation hits over %d rounds: single-source %d, pair %d, topk %d", rounds-1, hits[0], hits[1], hits[2])
}

// TestCarryGateClusteredChurn is the carry-forward gate: 24 disconnected
// communities of 20 nodes at ε=0.1, one source cached per community, and
// five rounds that each add one edge inside one community and re-read
// every source. Only the mutated community's source may recompute, so
// exactly 115 of the 120 reads hit. Without carry-forward every epoch
// advance strands the whole cache (the epoch is in every key) and none
// would.
func TestCarryGateClusteredChurn(t *testing.T) {
	const communities, size, rounds = int32(24), int32(20), int32(5)
	dyn := clusteredDyn(t, communities, size)
	c, err := simpush.NewClient(dyn, simpush.Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s, err := New(Config{Client: c})
	if err != nil {
		t.Fatal(err)
	}
	read := func(community int32) string {
		q := fmt.Sprintf("/v1/single-source?node=%d&seed=5", community*size+3)
		rec := doReq(s, "GET", q, "")
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", q, rec.Code, rec.Body.String())
		}
		return decodeBody(t, rec)["cache"].(string)
	}
	for community := int32(0); community < communities; community++ {
		read(community)
	}
	hits, reads := 0, 0
	for r := int32(1); r <= rounds; r++ {
		mutated := (13 * r) % communities
		b := mutated * size
		if rec := doReq(s, "POST", "/v1/edges", fmt.Sprintf(`{"from":%d,"to":%d}`, b+4, b+9+r%5)); rec.Code != 200 {
			t.Fatalf("round %d edges: %d %s", r, rec.Code, rec.Body.String())
		}
		for community := int32(0); community < communities; community++ {
			outcome := read(community)
			reads++
			if outcome == "hit" {
				hits++
			}
			if community == mutated && outcome != "computed" {
				t.Errorf("round %d: mutated community %d read %q, want computed", r, community, outcome)
			}
		}
	}
	if hits != 115 || reads != 120 {
		t.Fatalf("carry hits = %d of %d reads, want 115 of 120", hits, reads)
	}
	if st := s.Cache().Stats(); st.Carried != 115 || st.CarryDropped != 5 {
		t.Fatalf("cache stats %+v, want 115 carried and 5 dropped", st)
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

// Entries whose source is in the mutated cluster must drop, whatever
// their kind; a pair whose target is there carries, since its score is
// read off the source's unchanged row. Per-query ε overrides deeper than
// the delta BFS must refuse to carry, shallower ones may.
func TestCarryRespectsAffectedSetAndEpsOverrides(t *testing.T) {
	s, _ := newClusteredServer(t, Config{})
	for _, q := range []string{
		"/v1/single-source?node=3&seed=2",           // cluster 0: will be affected
		"/v1/single-source?node=28&seed=2",          // cluster 1: carriable
		"/v1/single-source?node=53&seed=2&eps=0.01", // deeper L* than the delta BFS
		"/v1/single-source?node=78&seed=2&eps=0.1",  // shallower L*: still carriable
		"/v1/pair?u=103&v=110&seed=2",               // cluster 4 pair: carriable
		"/v1/pair?u=128&v=3&seed=2",                 // target in the mutated cluster: the row still carries
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
		{"/v1/pair?u=128&v=3&seed=2", "hit"},
		{"/v1/topk?node=153&k=5&seed=2", "hit"},
	}
	for _, tc := range cases {
		body := decodeBody(t, doReq(s, "GET", tc.query, ""))
		if body["cache"] != tc.want {
			t.Errorf("%s after mutation: cache = %v, want %v", tc.query, body["cache"], tc.want)
		}
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
	// A removal of a never-existing edge is refused with nothing applied;
	// the removal of a ring edge commits.
	if rec := doReq(s, "DELETE", "/v1/edges", `{"from":3,"to":7}`); rec.Code != 400 {
		t.Fatalf("delete of a never-existing edge: %d %s, want 400", rec.Code, rec.Body.String())
	}
	if rec := doReq(s, "DELETE", "/v1/edges", `{"from":3,"to":4}`); rec.Code != 200 {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}

	samples := scrape(t, s)
	if got := metric(t, samples, "simrankd_delta_commits_total", nil); got != 1 {
		t.Fatalf("delta_commits_total = %v after one committed and one refused removal, want 1", got)
	}

	metrics := doReq(s, "GET", "/metricsz", "").Body.String()
	for _, series := range []string{
		"simrankd_cache_carried_total",
		"simrankd_cache_carry_dropped_total",
		"simrankd_delta_affected_nodes",
		"simrankd_delta_commits_total",
		"simrankd_delta_total_fallbacks_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metricsz missing %s", series)
		}
	}
}
