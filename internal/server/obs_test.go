package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/simrank/simpush/internal/obs"
)

// TestRequestIDEcho: every response — success and error alike — carries
// X-Request-Id; a client-supplied id is echoed verbatim, errors include
// it in the JSON body, and a hostile id is replaced rather than
// reflected.
func TestRequestIDEcho(t *testing.T) {
	s := newStaticServer(t, Config{})

	rec := doReq(s, "GET", "/v1/single-source?node=1", "")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if id := rec.Header().Get(obs.RequestIDHeader); id == "" {
		t.Error("success response missing a minted X-Request-Id")
	}

	req := httptest.NewRequest("GET", "/v1/single-source?node=999999", nil)
	req.Header.Set(obs.RequestIDHeader, "client-id-42")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 404 {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if id := rec.Header().Get(obs.RequestIDHeader); id != "client-id-42" {
		t.Errorf("echoed id = %q, want the client's", id)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != "client-id-42" {
		t.Errorf("error body request_id = %q, want client-id-42", body["request_id"])
	}

	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "bad\"id with spaces")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	got := rec.Header().Get(obs.RequestIDHeader)
	if got == "" || strings.ContainsAny(got, "\" ") {
		t.Errorf("hostile id not replaced: %q", got)
	}
}

// TestTraceRingAndSpans: with TraceRing set, a computed query lands in
// /debug/queries with its id, epoch, cache outcome and the engine-stage
// spans; a repeat of the same query records a hit with no engine spans.
func TestTraceRingAndSpans(t *testing.T) {
	s := newStaticServer(t, Config{TraceRing: 8})

	req := httptest.NewRequest("GET", "/v1/topk?node=3&k=5", nil)
	req.Header.Set(obs.RequestIDHeader, "trace-me")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("topk status = %d: %s", rec.Code, rec.Body.String())
	}
	doReq(s, "GET", "/v1/topk?node=3&k=5", "") // cache hit

	dbg := doReq(s, "GET", "/debug/queries", "")
	if dbg.Code != 200 {
		t.Fatalf("/debug/queries status = %d", dbg.Code)
	}
	var snap struct {
		Enabled bool              `json:"enabled"`
		Count   int               `json:"count"`
		Queries []obs.TraceRecord `json:"queries"`
	}
	if err := json.Unmarshal(dbg.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled || snap.Count != 2 {
		t.Fatalf("snapshot enabled=%v count=%d, want enabled with 2 traces", snap.Enabled, snap.Count)
	}
	// Newest first: queries[1] is the computed leader, queries[0] the hit.
	lead, hit := snap.Queries[1], snap.Queries[0]
	if lead.RequestID != "trace-me" || lead.Endpoint != "topk" || lead.Status != 200 {
		t.Errorf("leader trace = %+v", lead)
	}
	if lead.Cache != "computed" {
		t.Errorf("leader cache outcome = %q, want computed", lead.Cache)
	}
	if lead.Epoch != s.lastEpoch.Load() {
		t.Errorf("leader trace epoch = %d, want the pinned epoch %d", lead.Epoch, s.lastEpoch.Load())
	}
	names := map[string]bool{}
	for _, sp := range lead.Spans {
		names[sp.Name] = true
		if sp.DurMs < 0 {
			t.Errorf("span %s has negative duration %v", sp.Name, sp.DurMs)
		}
	}
	for _, want := range []string{"snapshot", "cache", "walk", "source_push", "gamma", "reverse_push"} {
		if !names[want] {
			t.Errorf("leader trace missing span %q (has %v)", want, names)
		}
	}
	if hit.Cache != "hit" {
		t.Errorf("second trace cache outcome = %q, want hit", hit.Cache)
	}
	for _, sp := range hit.Spans {
		if sp.Name == "walk" {
			t.Error("cache hit must not carry engine-stage spans")
		}
	}
}

// TestSlowQueryLog: with a sub-query threshold every computed query
// emits one WARN line carrying the request id and duration.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := newStaticServer(t, Config{SlowQuery: time.Nanosecond, Logger: logger})

	req := httptest.NewRequest("GET", "/v1/pair?u=1&v=2", nil)
	req.Header.Set(obs.RequestIDHeader, "slow-1")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("pair status = %d: %s", rec.Code, rec.Body.String())
	}
	line := buf.String()
	if !strings.Contains(line, `"msg":"slow query"`) || !strings.Contains(line, `"request_id":"slow-1"`) {
		t.Fatalf("slow-query log line missing fields: %q", line)
	}
	if !strings.Contains(line, "reverse_push") {
		t.Errorf("slow-query line carries no engine spans: %q", line)
	}
}

// TestTracingDisabledByDefault: without TraceRing/SlowQuery the ring is
// off and /debug/queries reports so.
func TestTracingDisabledByDefault(t *testing.T) {
	s := newStaticServer(t, Config{})
	if s.tracing() {
		t.Fatal("tracing() = true on a default config")
	}
	doReq(s, "GET", "/v1/single-source?node=1", "")
	dbg := decodeBody(t, doReq(s, "GET", "/debug/queries", ""))
	if dbg["enabled"] != false || dbg["count"] != float64(0) {
		t.Errorf("/debug/queries = %v, want disabled and empty", dbg)
	}
}

// TestMetricsz scrapes the exposition endpoint after live traffic and
// checks it parses and carries the core families with the right values.
func TestMetricsz(t *testing.T) {
	s := newStaticServer(t, Config{})
	doReq(s, "GET", "/v1/single-source?node=1", "")
	doReq(s, "GET", "/v1/single-source?node=1", "") // hit
	doReq(s, "GET", "/v1/topk?node=2&k=3", "")

	rec := doReq(s, "GET", "/metricsz", "")
	if rec.Code != 200 {
		t.Fatalf("/metricsz status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type = %q", ct)
	}
	samples, err := obs.ParseProm(rec.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	if v, ok := obs.FindSample(samples, "simrankd_cache_hits_total", nil); !ok || v != 1 {
		t.Errorf("cache_hits_total = %v (found %v), want 1", v, ok)
	}
	if v, ok := obs.FindSample(samples, "simrankd_requests_total", map[string]string{"endpoint": "single-source"}); !ok || v != 2 {
		t.Errorf("requests_total{single-source} = %v (found %v), want 2", v, ok)
	}
	stages := 0.0
	for _, name := range stageNames {
		v, ok := obs.FindSample(samples, "simrankd_engine_stage_seconds_total", map[string]string{"stage": name})
		if !ok {
			t.Errorf("missing stage series %q", name)
		}
		stages += v
	}
	if stages <= 0 {
		t.Error("engine stage totals are all zero after computed queries")
	}
	if v, ok := obs.FindSample(samples, "simrankd_request_duration_seconds_count",
		map[string]string{"endpoint": "single-source", "path": "engine"}); !ok || v != 1 {
		t.Errorf("duration histogram count{single-source,engine} = %v (found %v), want 1", v, ok)
	}
	// Histogram buckets must be cumulative: +Inf equals _count.
	inf, ok := obs.FindSample(samples, "simrankd_request_duration_seconds_bucket",
		map[string]string{"endpoint": "single-source", "path": "engine", "le": "+Inf"})
	if !ok || inf != 1 {
		t.Errorf("+Inf bucket = %v (found %v), want 1", inf, ok)
	}
}
