package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/obs"
	"github.com/simrank/simpush/internal/server"
)

// clusterFixture is a live leader + two followers behind a proxy, all on
// httptest listeners.
type clusterFixture struct {
	proxy        *httptest.Server
	set          *Set
	leader       *httptest.Server
	followers    []*httptest.Server
	followerSrvs []*server.Server
}

func (c *clusterFixture) leaderName() string { return strings.TrimPrefix(c.leader.URL, "http://") }

// newReplicaServer builds one simrankd-equivalent server over the shared
// deterministic base graph.
func newReplicaServer(t *testing.T, role server.Role, leaderURL string) *server.Server {
	t.Helper()
	return newReplica(t, server.Config{Role: role, LeaderURL: leaderURL, TraceRing: 16})
}

// newReplica builds a server with cfg over the shared base graph.
func newReplica(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	g, err := simpush.SyntheticWebGraph(300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := simpush.NewClient(simpush.DynamicFromGraph(g), simpush.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cfg.Client = client
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startCluster brings up leader + 2 followers + proxy and waits until
// every replica is routable.
func startCluster(t *testing.T, policy string) *clusterFixture {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	leaderSrv := newReplicaServer(t, server.RoleLeader, "")
	lts := httptest.NewServer(leaderSrv.Handler())
	t.Cleanup(lts.Close)

	c := &clusterFixture{leader: lts}
	urls := []string{lts.URL}
	for i := 0; i < 2; i++ {
		fsrv := newReplicaServer(t, server.RoleFollower, lts.URL)
		fsrv.StartReplication(ctx)
		fts := httptest.NewServer(fsrv.Handler())
		t.Cleanup(fts.Close)
		c.followers = append(c.followers, fts)
		c.followerSrvs = append(c.followerSrvs, fsrv)
		urls = append(urls, fts.URL)
	}

	set, err := NewSet(SetConfig{Replicas: urls, ProbeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.set = set
	p, err := New(Config{Set: set, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	c.proxy = httptest.NewServer(p.Handler())
	t.Cleanup(c.proxy.Close)

	waitFor(t, 10*time.Second, "all replicas routable", func() bool {
		set.ProbeOnce(ctx)
		return len(set.Routable()) == 3 && set.Leader() != nil
	})
	// Cleanups run LIFO: cancel the replication loops first so the
	// httptest servers don't wait out a parked long-poll on Close.
	t.Cleanup(cancel)
	return c
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// get fetches url and returns status, the replica header and the decoded
// JSON body.
func get(t *testing.T, url string) (int, string, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(ReplicaHeader), body
}

func post(t *testing.T, url, body string) (int, string, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		json.Unmarshal(raw, &decoded)
	}
	return resp.StatusCode, resp.Header.Get(ReplicaHeader), decoded
}

// TestClusterWriteConvergesBitIdentical is the tentpole cluster test
// (run under -race in CI): a POST /v1/edges through the proxy lands on
// the leader, streams to every follower, and once lag drains the same
// seeded query returns the same epoch and bit-identical scores on all
// three replicas.
func TestClusterWriteConvergesBitIdentical(t *testing.T) {
	c := startCluster(t, "hash")

	status, via, body := post(t, c.proxy.URL+"/v1/edges", `{"edges":[{"from":1,"to":200},{"from":200,"to":3}]}`)
	if status != http.StatusOK {
		t.Fatalf("proxied write = %d (%v)", status, body)
	}
	if via != c.leaderName() {
		t.Fatalf("write served by %q, want leader %q", via, c.leaderName())
	}
	wantEpoch := body["epoch"].(float64)
	if wantEpoch != 2 {
		t.Fatalf("write committed at epoch %v, want 2 (boot=1)", wantEpoch)
	}

	// Every follower must reach the write's epoch.
	for i, f := range c.followers {
		f := f
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d at epoch %v", i, wantEpoch), func() bool {
			code, _, h := get(t, f.URL+"/healthz")
			return code == http.StatusOK && h["epoch"] == wantEpoch && h["lag"] == float64(0)
		})
	}

	// Same-epoch scores are bit-identical across all three replicas.
	const q = "/v1/single-source?node=1&seed=42&dense=1"
	var ref []any
	for i, ts := range append([]*httptest.Server{c.leader}, c.followers...) {
		code, _, body := get(t, ts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("replica %d query = %d", i, code)
		}
		if got := body["epoch"].(float64); got != wantEpoch {
			t.Fatalf("replica %d answered at epoch %v, want %v", i, got, wantEpoch)
		}
		scores := body["dense_scores"].([]any)
		if i == 0 {
			ref = scores
			continue
		}
		if len(scores) != len(ref) {
			t.Fatalf("replica %d score length %d != %d", i, len(scores), len(ref))
		}
		for j := range ref {
			if scores[j].(float64) != ref[j].(float64) {
				t.Fatalf("replica %d diverges from leader at node %d: %v vs %v", i, j, scores[j], ref[j])
			}
		}
	}
}

// TestProxyCacheAffinityIsSticky: under the hash policy, repeated
// queries for one node always land on the same replica, and different
// nodes spread across more than one replica.
func TestProxyCacheAffinityIsSticky(t *testing.T) {
	c := startCluster(t, "hash")
	owners := map[int]string{}
	for round := 0; round < 3; round++ {
		for node := 0; node < 12; node++ {
			code, via, _ := get(t, fmt.Sprintf("%s/v1/single-source?node=%d&seed=1", c.proxy.URL, node))
			if code != http.StatusOK {
				t.Fatalf("node %d round %d = %d", node, round, code)
			}
			if round == 0 {
				owners[node] = via
			} else if owners[node] != via {
				t.Fatalf("node %d moved from %s to %s with a stable roster", node, owners[node], via)
			}
		}
	}
	distinct := map[string]bool{}
	for _, v := range owners {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("12 nodes all routed to one replica %v — no affinity spread", owners)
	}
}

// TestHashRoutingBeatsRoundRobinOnHitRate is the cache-affinity gain:
// three standalone replicas whose caches hold 32 entries each serve a
// 96-node hot set. Round-robin shows every replica every node, so each
// cache thrashes; hash routing gives each replica its own third of the
// set, which roughly fits. The same requests (fixed seed, fixed
// shuffled order per round) run once per policy on cold replicas, and
// the aggregate hit rate comes from the replicas' own caches.
func TestHashRoutingBeatsRoundRobinOnHitRate(t *testing.T) {
	const hot, rounds = 96, 6
	order := rand.New(rand.NewPCG(1, 2))
	var plan []int
	for r := 0; r < rounds; r++ {
		plan = append(plan, order.Perm(hot)...)
	}
	hitRate := func(policy string) float64 {
		var urls []string
		var reps []*server.Server
		for i := 0; i < 3; i++ {
			srv := newReplica(t, server.Config{CacheEntries: 32})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
			reps = append(reps, srv)
		}
		set, err := NewSet(SetConfig{Replicas: urls})
		if err != nil {
			t.Fatal(err)
		}
		set.ProbeOnce(context.Background())
		p, err := New(Config{Set: set, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range plan {
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/single-source?node=%d&seed=1&eps=0.3", node), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: node %d = %d %s", policy, node, rec.Code, rec.Body)
			}
		}
		var hits, misses uint64
		for _, srv := range reps {
			st := srv.Cache().Stats()
			hits, misses = hits+st.Hits, misses+st.Misses
		}
		if hits+misses != uint64(len(plan)) {
			t.Fatalf("%s: caches saw %d lookups, want %d", policy, hits+misses, len(plan))
		}
		return float64(hits) / float64(hits+misses)
	}
	rr, hash := hitRate("round-robin"), hitRate("hash")
	t.Logf("aggregate hit rate: hash %.3f, round-robin %.3f", hash, rr)
	if hash <= rr {
		t.Fatalf("hash hit rate %.3f is not above round-robin's %.3f", hash, rr)
	}
}

// TestProxyFailsOverOnReplicaError: a replica that accepts probes but
// fails queries gets one retry on another replica; the client sees 200.
func TestProxyFailsOverOnReplicaError(t *testing.T) {
	good := newReplicaServer(t, server.RoleStandalone, "")
	gts := httptest.NewServer(good.Handler())
	defer gts.Close()

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprint(w, `{"status":"ok","epoch":1}`)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer bad.Close()

	set, err := NewSet(SetConfig{Replicas: []string{bad.URL, gts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	set.ProbeOnce(context.Background())
	p, err := New(Config{Set: set, Policy: "round-robin"})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	goodName := strings.TrimPrefix(gts.URL, "http://")
	for i := 0; i < 6; i++ { // round-robin guarantees some first-hit the bad one
		code, via, body := get(t, pts.URL+"/v1/single-source?node=1&seed=1")
		if code != http.StatusOK {
			t.Fatalf("request %d = %d (%v)", i, code, body)
		}
		if via != goodName {
			t.Fatalf("request %d served by %q, want failover to %q", i, via, goodName)
		}
	}
	if p.retries.Load() == 0 || p.failovers.Load() == 0 {
		t.Fatalf("retries %d failovers %d, want both > 0", p.retries.Load(), p.failovers.Load())
	}
}

// TestProxyAvoidsDrainingReplica: a draining replica (healthz 503) drops
// out of the read set after the next probe and reads keep succeeding.
func TestProxyAvoidsDrainingReplica(t *testing.T) {
	c := startCluster(t, "round-robin")

	// Drain follower 0 the way SIGTERM does.
	resp, err := http.Get(c.followers[0].URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	c.followerSrvs[0].Drain()
	drained := strings.TrimPrefix(c.followers[0].URL, "http://")
	waitFor(t, 5*time.Second, "drained follower out of the read set", func() bool {
		c.set.ProbeOnce(context.Background())
		return len(c.set.Routable()) == 2
	})
	for i := 0; i < 9; i++ {
		code, via, _ := get(t, fmt.Sprintf("%s/v1/single-source?node=%d&seed=1", c.proxy.URL, i))
		if code != http.StatusOK {
			t.Fatalf("read %d after drain = %d", i, code)
		}
		if via == drained {
			t.Fatalf("read %d routed to the draining replica", i)
		}
	}

	// Proxy health stays up with 2/3 replicas routable.
	code, _, body := get(t, c.proxy.URL+"/healthz")
	if code != http.StatusOK || body["routable"].(float64) != 2 {
		t.Fatalf("proxy healthz after drain = %d %v, want 200 with 2 routable", code, body)
	}
}

// TestProxyMetricszReplicaState: the proxy's /metricsz carries its own
// counters plus one series per replica for each probed field, and its
// /healthz names the routable epoch and graph size.
func TestProxyMetricszReplicaState(t *testing.T) {
	c := startCluster(t, "hash")
	for i := 0; i < 4; i++ {
		if code, _, _ := get(t, fmt.Sprintf("%s/v1/single-source?node=%d&seed=1", c.proxy.URL, i)); code != 200 {
			t.Fatalf("warm-up read %d failed", i)
		}
	}
	samples := scrapeProm(t, c.proxy.URL)
	if v, _ := obs.FindSample(samples, "simproxy_requests_total", nil); v < 4 {
		t.Fatalf("simproxy_requests_total = %v, want >= 4", v)
	}
	var up, routable, leaders, proxied float64
	series := 0
	for _, s := range samples {
		switch s.Name {
		case "simproxy_replica_up":
			series++
			up += s.Value
		case "simproxy_replica_routable":
			routable += s.Value
		case "simproxy_replica_leader":
			leaders += s.Value
		case "simproxy_replica_requests_proxied_total":
			proxied += s.Value
		}
	}
	if series != 3 || up != 3 || routable != 3 {
		t.Fatalf("replica series = %d, up %v, routable %v; want 3 of each", series, up, routable)
	}
	if leaders != 1 {
		t.Fatalf("%v replicas claim leadership, want exactly 1", leaders)
	}
	if proxied < 4 {
		t.Fatalf("per-replica proxied counts sum to %v, want >= 4", proxied)
	}

	code, _, h := get(t, c.proxy.URL+"/healthz")
	if code != http.StatusOK || h["epoch"] != float64(1) || h["n"] != float64(300) || h["leader"] != c.leaderName() {
		t.Fatalf("proxy healthz = %d %v, want epoch 1, n 300 and the leader's name", code, h)
	}
}

// scrapeProm fetches and parses a daemon's /metricsz.
func scrapeProm(t *testing.T, base string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metricsz = %d", base, resp.StatusCode)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing %s/metricsz: %v", base, err)
	}
	return samples
}

// TestProxyNoRoutableReplica: with nothing routable the proxy sheds with
// 503 no_replica rather than hanging or guessing.
func TestProxyNoRoutableReplica(t *testing.T) {
	set, err := NewSet(SetConfig{Replicas: []string{"127.0.0.1:1"}, ProbeTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	set.ProbeOnce(context.Background())
	p, err := New(Config{Set: set})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/single-source?node=1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("read with empty cluster = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/edges", strings.NewReader(`{"from":0,"to":1}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write with no leader = %d, want 503", rec.Code)
	}
}

// TestProxyRequestIDPropagation: a client-supplied X-Request-Id survives
// proxy → replica → response, and the serving replica's /debug/queries
// records the trace under that id with per-stage engine spans.
func TestProxyRequestIDPropagation(t *testing.T) {
	c := startCluster(t, "hash")

	req, err := http.NewRequest(http.MethodGet, c.proxy.URL+"/v1/single-source?node=9&seed=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "prop-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied read = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "prop-test-1" {
		t.Fatalf("response request id = %q, want the client's prop-test-1", got)
	}
	via := resp.Header.Get(ReplicaHeader)
	if via == "" {
		t.Fatal("response missing the replica header")
	}

	// The serving replica's trace ring must hold the id, with the engine
	// stages of the computed query spelled out.
	code, _, dbg := get(t, "http://"+via+"/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("replica /debug/queries = %d", code)
	}
	queries, _ := dbg["queries"].([]any)
	var trace map[string]any
	for _, q := range queries {
		qm := q.(map[string]any)
		if qm["request_id"] == "prop-test-1" {
			trace = qm
			break
		}
	}
	if trace == nil {
		t.Fatalf("replica %s trace ring has no record for prop-test-1: %v", via, dbg)
	}
	if trace["cache"] != "computed" {
		t.Errorf("trace cache outcome = %v, want computed", trace["cache"])
	}
	spans := map[string]bool{}
	if ss, ok := trace["spans"].([]any); ok {
		for _, sp := range ss {
			spans[sp.(map[string]any)["name"].(string)] = true
		}
	}
	for _, want := range []string{"walk", "source_push", "gamma", "reverse_push"} {
		if !spans[want] {
			t.Errorf("trace missing engine span %q (has %v)", want, spans)
		}
	}

	// Without a client id the proxy mints one and still echoes it.
	resp2, err := http.Get(c.proxy.URL + "/v1/topk?node=4&k=3&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get(obs.RequestIDHeader) == "" {
		t.Error("proxy did not mint a request id for an id-less request")
	}
}

// TestAffinityNodeExtraction covers the routing-key parser.
func TestAffinityNodeExtraction(t *testing.T) {
	cases := []struct {
		path, body string
		want       int32
		ok         bool
	}{
		{"/v1/single-source?node=17", "", 17, true},
		{"/v1/topk?node=3&k=10", "", 3, true},
		{"/v1/pair?u=5&v=9", "", 5, true},
		{"/v1/batch", `{"nodes":[8,1,2]}`, 8, true},
		{"/v1/batch", `{"nodes":[]}`, 0, false},
		{"/v1/single-source", "", 0, false},
		{"/v1/single-source?node=bogus", "", 0, false},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, tc.path, nil)
		node, ok := affinityNode(r, []byte(tc.body))
		if node != tc.want || ok != tc.ok {
			t.Errorf("affinityNode(%s, %q) = (%d, %v), want (%d, %v)", tc.path, tc.body, node, ok, tc.want, tc.ok)
		}
	}
}
