package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/obs"
)

func newClient(t *testing.T, src simpush.GraphSource) *simpush.Client {
	t.Helper()
	c, err := simpush.NewClient(src, simpush.Options{Epsilon: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testGraph(t *testing.T) *simpush.Graph {
	t.Helper()
	g, err := simpush.SyntheticWebGraph(300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newStaticServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Client = newClient(t, testGraph(t))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newDynamicServer(t *testing.T, cfg Config) (*Server, *simpush.DynamicGraph) {
	t.Helper()
	dyn := simpush.DynamicFromGraph(testGraph(t))
	cfg.Client = newClient(t, dyn)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dyn
}

// doReq runs one request through the handler without a network listener.
func doReq(s *Server, method, target, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// scrape reads the server's /metricsz and parses it.
func scrape(t *testing.T, s *Server) []obs.Sample {
	t.Helper()
	rec := doReq(s, "GET", "/metricsz", "")
	if rec.Code != 200 {
		t.Fatalf("/metricsz = %d", rec.Code)
	}
	samples, err := obs.ParseProm(rec.Body)
	if err != nil {
		t.Fatalf("parsing /metricsz: %v", err)
	}
	return samples
}

// metric returns the value of one scraped series, failing the test when
// the series is absent.
func metric(t *testing.T, samples []obs.Sample, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := obs.FindSample(samples, name, labels)
	if !ok {
		t.Fatalf("/metricsz has no series %s%v", name, labels)
	}
	return v
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return m
}

// TestHandlerTable covers request validation across every endpoint: bad
// nodes, bad parameters, method mismatches, bodies.
func TestHandlerTable(t *testing.T) {
	s := newStaticServer(t, Config{MaxBatch: 4})
	cases := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"missing node", "GET", "/v1/single-source", "", 400, "missing_parameter"},
		{"unparseable node", "GET", "/v1/single-source?node=abc", "", 400, "bad_parameter"},
		{"node out of range", "GET", "/v1/single-source?node=99999", "", 404, "node_not_found"},
		{"negative node", "GET", "/v1/single-source?node=-3", "", 404, "node_not_found"},
		{"bad eps", "GET", "/v1/single-source?node=1&eps=oops", "", 400, "bad_parameter"},
		{"eps out of domain", "GET", "/v1/single-source?node=1&eps=7", "", 400, "invalid_options"},
		{"bad timeout", "GET", "/v1/single-source?node=1&timeout=soon", "", 400, "bad_parameter"},
		{"negative timeout", "GET", "/v1/single-source?node=1&timeout=-5s", "", 400, "bad_parameter"},
		{"method mismatch single-source", "POST", "/v1/single-source?node=1", "", 405, "method_not_allowed"},
		{"method mismatch topk", "DELETE", "/v1/topk?node=1", "", 405, "method_not_allowed"},
		{"bad k", "GET", "/v1/topk?node=1&k=zero", "", 400, "bad_parameter"},
		{"k < 1", "GET", "/v1/topk?node=1&k=0", "", 400, "bad_parameter"},
		{"pair missing v", "GET", "/v1/pair?u=1", "", 400, "missing_parameter"},
		{"pair bad target", "GET", "/v1/pair?u=1&v=12345", "", 404, "node_not_found"},
		{"pair negative target", "GET", "/v1/pair?u=1&v=-1", "", 404, "node_not_found"},
		{"method mismatch pair", "POST", "/v1/pair?u=1&v=2", "", 405, "method_not_allowed"},
		{"batch via GET", "GET", "/v1/batch", "", 405, "method_not_allowed"},
		{"batch bad body", "POST", "/v1/batch", "{", 400, "bad_body"},
		{"batch empty", "POST", "/v1/batch", `{"nodes":[]}`, 400, "missing_parameter"},
		{"batch too large", "POST", "/v1/batch", `{"nodes":[1,2,3,4,5]}`, 413, "batch_too_large"},
		{"batch negative k", "POST", "/v1/batch", `{"nodes":[1],"k":-1}`, 400, "bad_parameter"},
		{"batch bad node", "POST", "/v1/batch", `{"nodes":[1,88888]}`, 404, "node_not_found"},
		{"edges on static source", "POST", "/v1/edges", `{"from":1,"to":2}`, 501, "static_source"},
		{"edges method mismatch", "GET", "/v1/edges", "", 405, "method_not_allowed"},
		{"healthz method mismatch", "POST", "/healthz", "", 405, "method_not_allowed"},
		{"metricsz method mismatch", "DELETE", "/metricsz", "", 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doReq(s, tc.method, tc.target, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantCode != "" {
				body := decodeBody(t, rec)
				if body["code"] != tc.wantCode {
					t.Fatalf("code = %v, want %q", body["code"], tc.wantCode)
				}
			}
			if rec.Code == 405 && rec.Header().Get("Allow") == "" {
				t.Fatal("405 without Allow header")
			}
		})
	}
}

func TestQueryEndpointsServe(t *testing.T) {
	s := newStaticServer(t, Config{})

	rec := doReq(s, "GET", "/v1/single-source?node=7&seed=3", "")
	if rec.Code != 200 {
		t.Fatalf("single-source: %d %s", rec.Code, rec.Body.String())
	}
	body := decodeBody(t, rec)
	if body["epoch"].(float64) != 0 {
		t.Fatalf("static source epoch = %v", body["epoch"])
	}
	found := false
	for _, e := range body["scores"].([]any) {
		entry := e.(map[string]any)
		if entry["node"].(float64) == 7 && entry["score"].(float64) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("sparse scores missing the self entry s(u,u)=1")
	}

	rec = doReq(s, "GET", "/v1/single-source?node=7&seed=3&dense=1", "")
	body = decodeBody(t, rec)
	dense := body["dense_scores"].([]any)
	if len(dense) != 300 {
		t.Fatalf("dense scores length = %d", len(dense))
	}

	rec = doReq(s, "GET", "/v1/topk?node=7&k=5&seed=3", "")
	if rec.Code != 200 {
		t.Fatalf("topk: %d %s", rec.Code, rec.Body.String())
	}
	body = decodeBody(t, rec)
	results := body["results"].([]any)
	if len(results) > 5 {
		t.Fatalf("topk returned %d results for k=5", len(results))
	}
	prev := 2.0
	for _, e := range results {
		sc := e.(map[string]any)["score"].(float64)
		if sc > prev {
			t.Fatal("topk results not in descending score order")
		}
		prev = sc
	}

	rec = doReq(s, "GET", "/v1/pair?u=7&v=9&seed=3", "")
	if rec.Code != 200 {
		t.Fatalf("pair: %d %s", rec.Code, rec.Body.String())
	}

	// Warm node 1 through the GET endpoint, then batch over it: the batch
	// reads the same per-node cache entries the GET endpoint fills (the
	// canonical params of ?seed=3 and {"seed":3} coincide).
	queriesBefore := s.cfg.Client.Stats().Queries
	rec = doReq(s, "GET", "/v1/single-source?node=1&seed=3", "")
	if rec.Code != 200 {
		t.Fatalf("warm single-source: %d", rec.Code)
	}
	rec = doReq(s, "POST", "/v1/batch", `{"nodes":[1,2,1],"k":3,"seed":3}`)
	if rec.Code != 200 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	body = decodeBody(t, rec)
	if body["count"].(float64) != 3 {
		t.Fatalf("batch count = %v", body["count"])
	}
	if body["cached"].(float64) != 2 {
		t.Fatalf("batch cached = %v, want 2 (both occurrences of the warmed node)", body["cached"])
	}
	// Three batch rows, but only node 2 actually ran: node 1 was cached
	// and its duplicate deduped.
	if got := s.cfg.Client.Stats().Queries - queriesBefore; got != 2 {
		t.Fatalf("engine ran %d times for warm+batch, want 2", got)
	}

	rec = doReq(s, "GET", "/healthz", "")
	if rec.Code != 200 {
		t.Fatalf("healthz: %d", rec.Code)
	}
	samples := scrape(t, s)
	if metric(t, samples, "simrankd_requests_total", map[string]string{"endpoint": "single-source"}) == 0 ||
		metric(t, samples, "simrankd_client_queries_total", nil) == 0 {
		t.Fatal("/metricsz counters empty after traffic")
	}

	// The latency histograms must be live after traffic, with the engine
	// and cache-hit paths separated: single-source served both a computed
	// and a cached request above.
	buckets := 0
	for _, sm := range samples {
		if sm.Name == "simrankd_request_duration_seconds_bucket" &&
			sm.Labels["endpoint"] == "single-source" && sm.Labels["path"] == "engine" && sm.Labels["le"] != "+Inf" {
			buckets++
		}
	}
	if buckets != latencyBucketCount-1 {
		t.Fatalf("single-source engine histogram has %d finite buckets, want %d", buckets, latencyBucketCount-1)
	}
	for _, ep := range []struct{ endpoint, path string }{
		{"single-source", "engine"}, {"single-source", "cache"}, {"batch", "engine"}, {"topk", "engine"},
	} {
		if metric(t, samples, "simrankd_request_duration_seconds_count",
			map[string]string{"endpoint": ep.endpoint, "path": ep.path}) == 0 {
			t.Fatalf("%s %s-path histogram is empty", ep.endpoint, ep.path)
		}
	}
	if s.adm.avgServiceNanos() == 0 || metric(t, samples, "simrankd_admission_retry_after_seconds", nil) < 1 {
		t.Fatal("admission service rate and retry-after not populated")
	}
}

func TestCacheHitOnRepeatedQuery(t *testing.T) {
	s := newStaticServer(t, Config{})
	first := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5", ""))
	if first["cache"] != "computed" {
		t.Fatalf("first query cache = %v", first["cache"])
	}
	second := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5", ""))
	if second["cache"] != "hit" {
		t.Fatalf("second identical query cache = %v, want hit", second["cache"])
	}
	// Equivalent spellings of the same parameters share the entry.
	third := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5&eps=0", ""))
	if third["cache"] != "hit" {
		t.Fatalf("canonicalized query cache = %v, want hit", third["cache"])
	}
	// Different params are a different entry.
	fourth := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5&eps=0.1", ""))
	if fourth["cache"] != "computed" {
		t.Fatalf("distinct-params query cache = %v, want computed", fourth["cache"])
	}
	st := s.Cache().Stats()
	if st.Hits < 2 || st.Misses < 2 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestEpochAdvanceMakesCacheEntriesUnreachable(t *testing.T) {
	s, _ := newDynamicServer(t, Config{})
	first := decodeBody(t, doReq(s, "GET", "/v1/topk?node=1&k=3&seed=9", ""))
	if first["cache"] != "computed" {
		t.Fatalf("first query cache = %v", first["cache"])
	}
	epoch0 := first["epoch"].(float64)
	if decodeBody(t, doReq(s, "GET", "/v1/topk?node=1&k=3&seed=9", ""))["cache"] != "hit" {
		t.Fatal("repeat on same epoch should hit")
	}

	rec := doReq(s, "POST", "/v1/edges", `{"edges":[{"from":1,"to":299},{"from":299,"to":1}]}`)
	if rec.Code != 200 {
		t.Fatalf("edges: %d %s", rec.Code, rec.Body.String())
	}

	third := decodeBody(t, doReq(s, "GET", "/v1/topk?node=1&k=3&seed=9", ""))
	if third["cache"] != "computed" {
		t.Fatalf("post-mutation query cache = %v, want computed (old epoch unreachable)", third["cache"])
	}
	if third["epoch"].(float64) <= epoch0 {
		t.Fatalf("epoch did not advance: %v -> %v", epoch0, third["epoch"])
	}

	// Removing the edges works and advances the epoch again.
	rec = doReq(s, "DELETE", "/v1/edges", `{"edges":[{"from":1,"to":299},{"from":299,"to":1}]}`)
	if rec.Code != 200 {
		t.Fatalf("delete edges: %d %s", rec.Code, rec.Body.String())
	}
	fourth := decodeBody(t, doReq(s, "GET", "/v1/topk?node=1&k=3&seed=9", ""))
	if fourth["cache"] != "computed" || fourth["epoch"].(float64) <= third["epoch"].(float64) {
		t.Fatalf("post-deletion query = cache %v epoch %v", fourth["cache"], fourth["epoch"])
	}
}

// TestSingleFlight proves one engine run for N identical concurrent
// requests: whether a request coalesces onto the in-flight computation or
// lands after it and hits the cache, the engine must run exactly once.
func TestSingleFlight(t *testing.T) {
	s := newStaticServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	before := s.cfg.Client.Stats().Queries
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/single-source?node=42&seed=1&eps=0.01")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				b, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.cfg.Client.Stats().Queries - before; got != 1 {
		t.Fatalf("engine ran %d times for %d identical concurrent requests", got, n)
	}
	st := s.Cache().Stats()
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d", st.Hits, st.Coalesced, n-1)
	}
}

// TestAdmissionControl drives the controller to saturation and checks the
// HTTP surface: a request that cannot even queue gets 429 + Retry-After.
func TestAdmissionControl(t *testing.T) {
	s := newStaticServer(t, Config{MaxInFlight: 1, MaxQueue: 1})

	// Occupy the only slot, then park a waiter in the only queue seat.
	if _, err := s.adm.acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	waiterIn := make(chan error, 1)
	go func() {
		_, err := s.adm.acquire(t.Context())
		waiterIn <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}

	rec := doReq(s, "GET", "/v1/single-source?node=5", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d %s", rec.Code, rec.Body.String())
	}
	// No computation has finished yet, so the estimate falls back to 1s.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if decodeBody(t, rec)["code"] != "saturated" {
		t.Fatal("saturated request must carry code \"saturated\"")
	}
	if s.adm.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}

	// Release the slot: the queued waiter takes it; once it releases too,
	// queries flow again.
	s.adm.release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	s.adm.release()
	rec = doReq(s, "GET", "/v1/single-source?node=5", "")
	if rec.Code != 200 {
		t.Fatalf("post-saturation request = %d %s", rec.Code, rec.Body.String())
	}
}

func TestDrainFlipsHealthzOnly(t *testing.T) {
	s := newStaticServer(t, Config{})
	if rec := doReq(s, "GET", "/healthz", ""); rec.Code != 200 {
		t.Fatalf("healthz before drain: %d", rec.Code)
	}
	s.Drain()
	rec := doReq(s, "GET", "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", rec.Code)
	}
	if rec := doReq(s, "GET", "/v1/single-source?node=1", ""); rec.Code != 200 {
		t.Fatalf("query during drain = %d, want 200 (drain only flips healthz)", rec.Code)
	}
}

func TestClosedClientMapsToShuttingDown(t *testing.T) {
	g := testGraph(t)
	c, err := simpush.NewClient(g, simpush.Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Client: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rec := doReq(s, "GET", "/v1/single-source?node=1", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query on closed client = %d, want 503", rec.Code)
	}
	if decodeBody(t, rec)["code"] != "shutting_down" {
		t.Fatal("closed client must map to code shutting_down")
	}
}

// TestConcurrentQueriesAndMutations is the stale-epoch race test: HTTP
// queries and edge mutations run concurrently, and because every query is
// seeded, two responses carrying the same epoch must have identical
// scores — a cache entry served across epochs would show up as a
// same-epoch fingerprint mismatch or as an epoch regression. Run with
// -race.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	dyn := simpush.DynamicFromGraph(testGraph(t))
	c := newClient(t, dyn)
	s, err := New(Config{Client: c})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	const (
		queryWorkers = 4
		mutWorkers   = 2
		iters        = 25
	)
	var (
		mu           sync.Mutex
		fingerprints = map[uint64]string{} // epoch -> scores body
		maxEpochSeen uint64
	)
	var wg sync.WaitGroup
	errCh := make(chan error, queryWorkers+mutWorkers)

	for w := 0; w < mutWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < iters; i++ {
				from := int32(w)
				to := int32(100 + (i % 50))
				body := fmt.Sprintf(`{"from":%d,"to":%d}`, from, to)
				resp, err := client.Post(ts.URL+"/v1/edges", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("add edge: status %d", resp.StatusCode)
					return
				}
				// Remove the edge we just added (always matched, so no
				// snapshot failures).
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/edges", strings.NewReader(body))
				resp, err = client.Do(req)
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("remove edge: status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < iters; i++ {
				mu.Lock()
				epochBefore := maxEpochSeen
				mu.Unlock()
				resp, err := client.Get(ts.URL + "/v1/single-source?node=0&seed=11")
				if err != nil {
					errCh <- err
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("query: status %d: %s", resp.StatusCode, raw)
					return
				}
				var body struct {
					Epoch  uint64          `json:"epoch"`
					Scores json.RawMessage `json:"scores"`
				}
				if err := json.Unmarshal(raw, &body); err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				// No response may be older than an epoch this goroutine
				// already knew was committed before it sent the request.
				if body.Epoch < epochBefore {
					mu.Unlock()
					errCh <- fmt.Errorf("stale epoch: response %d after observing %d", body.Epoch, epochBefore)
					return
				}
				if body.Epoch > maxEpochSeen {
					maxEpochSeen = body.Epoch
				}
				fp := string(bytes.TrimSpace(body.Scores))
				if prev, ok := fingerprints[body.Epoch]; ok {
					if prev != fp {
						mu.Unlock()
						errCh <- fmt.Errorf("two different results for epoch %d — a cache entry crossed epochs", body.Epoch)
						return
					}
				} else {
					fingerprints[body.Epoch] = fp
				}
				mu.Unlock()
			}
		}(w)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(fingerprints) < 2 {
		t.Logf("warning: only %d distinct epochs observed; race coverage thin", len(fingerprints))
	}
}

// TestErrSaturatedMapping pins the error taxonomy used by mapError.
func TestErrSaturatedMapping(t *testing.T) {
	if he := mapError(errSaturated); he.status != 429 || he.code != "saturated" {
		t.Fatalf("errSaturated -> %d %s", he.status, he.code)
	}
	if he := mapError(simpush.ErrClientClosed); he.status != 503 {
		t.Fatalf("ErrClientClosed -> %d", he.status)
	}
	if he := mapError(errors.New("boom")); he.status != 500 || he.code != "internal" {
		t.Fatalf("unknown -> %d %s", he.status, he.code)
	}
}

// TestAcquireUpTo pins the multi-slot admission semantics behind /v1/batch:
// the first slot may wait, extras are taken only if free, and the total
// held across callers never exceeds the in-flight limit.
func TestAcquireUpTo(t *testing.T) {
	a := newAdmission(4, 8)
	held, _, err := a.acquireUpTo(t.Context(), 3)
	if err != nil || held != 3 {
		t.Fatalf("first batch: held %d, err %v", held, err)
	}
	// One slot left: a second wide request gets its guaranteed first slot
	// and no extras — engine concurrency stays within the limit.
	held2, _, err := a.acquireUpTo(t.Context(), 3)
	if err != nil || held2 != 1 {
		t.Fatalf("second batch: held %d, err %v", held2, err)
	}
	if a.inFlight() != 4 {
		t.Fatalf("in-flight = %d, want 4", a.inFlight())
	}
	a.releaseN(held)
	a.releaseN(held2)
	if a.inFlight() != 0 {
		t.Fatalf("in-flight after release = %d", a.inFlight())
	}
}

// TestDeleteEdgeRejectsImpossibleIds: removal validation is lazy for
// edges that may have raced away, but ids that can never exist must be
// rejected eagerly — otherwise the poisoned snapshot fails an unrelated
// user's next query.
func TestDeleteEdgeRejectsImpossibleIds(t *testing.T) {
	s, _ := newDynamicServer(t, Config{})
	rec := doReq(s, "DELETE", "/v1/edges", `{"from":-5,"to":3}`)
	if rec.Code != 400 || decodeBody(t, rec)["code"] != "bad_edge" {
		t.Fatalf("negative-id delete = %d %s, want 400 bad_edge", rec.Code, rec.Body.String())
	}
	// The rejected removal must not have been recorded: the next query
	// succeeds.
	if rec := doReq(s, "GET", "/v1/single-source?node=1", ""); rec.Code != 200 {
		t.Fatalf("query after rejected delete = %d %s", rec.Code, rec.Body.String())
	}
}

// The parallelism parameter is validated, clamped to the server cap, and
// participates in the cache key (distinct worker counts give distinct,
// equally valid results; k=1 shares the serial default's entries).
func TestParallelismParameter(t *testing.T) {
	s := newStaticServer(t, Config{MaxParallelism: 2})

	if rec := doReq(s, "GET", "/v1/single-source?node=3&parallelism=bad", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad parallelism -> %d", rec.Code)
	}
	if rec := doReq(s, "GET", "/v1/single-source?node=3&parallelism=-1", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative parallelism -> %d", rec.Code)
	}

	serial := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5", ""))
	if serial["cache"] != "computed" {
		t.Fatalf("serial query cache = %v", serial["cache"])
	}
	// parallelism=1 is the serial path and shares its cache entries.
	if m := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5&parallelism=1", "")); m["cache"] != "hit" {
		t.Fatalf("parallelism=1 cache = %v, want hit", m["cache"])
	}
	// parallelism=2 is a distinct entry...
	par := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5&parallelism=2", ""))
	if par["cache"] != "computed" {
		t.Fatalf("parallelism=2 cache = %v, want computed", par["cache"])
	}
	// ...and values above the cap clamp onto it.
	clamped := decodeBody(t, doReq(s, "GET", "/v1/single-source?node=3&seed=5&parallelism=64", ""))
	if clamped["cache"] != "hit" {
		t.Fatalf("clamped parallelism cache = %v, want hit", clamped["cache"])
	}
}
