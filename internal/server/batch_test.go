package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
)

// A batch row is a lookup on the GET endpoints' path: with the only
// admission slot held, a GET on source 5 waits in the queue, and a batch
// naming 5 joins that GET's flight instead of queueing a second run.
func TestBatchJoinsQueuedRead(t *testing.T) {
	s := newStaticServer(t, Config{MaxInFlight: 1, MaxQueue: 4})
	if _, err := s.adm.acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	held := true
	defer func() {
		if held {
			s.adm.release()
		}
	}()
	before := s.cfg.Client.Stats().Queries

	get := make(chan *httptest.ResponseRecorder, 1)
	go func() { get <- doReq(s, "GET", "/v1/single-source?node=5&seed=3", "") }()
	waitUntil(t, "the GET queued for the slot", func() bool { return s.adm.queueDepth() == 1 })
	batch := make(chan *httptest.ResponseRecorder, 1)
	go func() { batch <- doReq(s, "POST", "/v1/batch", `{"nodes":[5],"seed":3}`) }()
	waitUntil(t, "the batch to join the GET's flight", func() bool { return s.Cache().Stats().Coalesced == 1 })
	s.adm.release()
	held = false

	for name, rec := range map[string]*httptest.ResponseRecorder{"GET": <-get, "batch": <-batch} {
		if rec.Code != 200 {
			t.Fatalf("%s = %d %s", name, rec.Code, rec.Body.String())
		}
	}
	if got := s.cfg.Client.Stats().Queries - before; got != 1 {
		t.Fatalf("engine ran %d times for a GET and a batch on one source, want 1", got)
	}
}

// Every batch node is checked against the pinned graph before any
// lookup: one out-of-range node answers 404, with no cache miss counted
// and nothing cached.
func TestBatchOutOfRangeNodeLooksUpNothing(t *testing.T) {
	s := newStaticServer(t, Config{})
	rec := doReq(s, "POST", "/v1/batch", `{"nodes":[1,2,99999]}`)
	if rec.Code != 404 || decodeBody(t, rec)["code"] != "node_not_found" {
		t.Fatalf("batch with node 99999 = %d %s, want 404 node_not_found", rec.Code, rec.Body.String())
	}
	if st := s.Cache().Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("cache stats %+v after a refused batch, want no miss and no entry", st)
	}
	if q := s.cfg.Client.Stats().Queries; q != 0 {
		t.Fatalf("engine ran %d times for a refused batch", q)
	}
}

// A batch takes admission like any read: with the slot held and the
// queue full it is shed with 429 and a Retry-After, and it is served once
// the slot frees up.
func TestBatchSaturated(t *testing.T) {
	s := newStaticServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	waiterIn := saturate(t, s)
	rec := doReq(s, "POST", "/v1/batch", `{"nodes":[5,6]}`)
	if rec.Code != 429 || decodeBody(t, rec)["code"] != "saturated" {
		t.Fatalf("saturated batch = %d %s, want 429 saturated", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 batch without Retry-After")
	}
	s.adm.release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	s.adm.release()
	if rec := doReq(s, "POST", "/v1/batch", `{"nodes":[5,6]}`); rec.Code != 200 {
		t.Fatalf("batch after saturation = %d %s", rec.Code, rec.Body.String())
	}
}

// Cancelling a running batch leaves nothing behind: no admission slot
// held, no flight in the cache and no row stored.
func TestBatchCancelLeavesNothing(t *testing.T) {
	s := newStaticServer(t, Config{MaxInFlight: 1, MaxQueue: 4})
	if _, err := s.adm.acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(`{"nodes":[1,2,3]}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec
	}()
	waitUntil(t, "the batch's first lookup queued for the slot", func() bool { return s.adm.queueDepth() == 1 })
	cancel()
	if rec := <-done; rec.Code != 499 {
		t.Fatalf("cancelled batch = %d %s, want 499", rec.Code, rec.Body.String())
	}
	s.adm.release()
	waitUntil(t, "the abandoned lookup to end", func() bool {
		return s.Cache().Stats().Flights == 0 && s.adm.inFlight() == 0
	})
	if h := decodeBody(t, doReq(s, "GET", "/healthz", "")); h["in_flight"] != float64(0) {
		t.Fatalf("healthz after a cancelled batch = %v, want in_flight 0", h)
	}
	if st := s.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("cancelled batch stored %d rows", st.Entries)
	}
}
