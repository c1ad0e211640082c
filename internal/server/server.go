// Package server is the HTTP serving subsystem behind cmd/simrankd: it
// exposes the full simpush query surface over HTTP/JSON and implements
// the three serving layers that turn the library into a daemon able to
// absorb heavy repeated traffic:
//
//  1. an epoch-aware result cache (internal/cache) keyed by
//     (epoch, kind, node, params) — entries computed on a superseded graph
//     epoch become structurally unreachable when the source advances, so
//     a cached result can never be served stale;
//  2. single-flight coalescing — N concurrent identical queries on one
//     epoch run the engine once and share the result;
//  3. admission control — a bounded in-flight limit plus a bounded wait
//     queue around engine computations; beyond both the server sheds load
//     with 429 + Retry-After instead of queueing unboundedly.
//
// Every request carries a deadline (the ?timeout parameter, clamped to a
// configured maximum) that is propagated as a context timeout into the
// engine stages, so overload cannot strand goroutines in long queries.
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/cache"
	"github.com/simrank/simpush/internal/obs"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default; only Client is required.
type Config struct {
	// Client serves the queries. Required.
	Client *simpush.Client

	// CacheEntries bounds the result cache. 0 (the default) auto-sizes
	// the bound from a ~256 MB budget divided by the graph's row cost, so
	// web-scale graphs don't admit thousands of O(n) rows. Negative
	// disables result storage while keeping single-flight coalescing.
	CacheEntries int

	// MaxInFlight bounds concurrently running engine computations
	// (default 2×GOMAXPROCS).
	MaxInFlight int

	// MaxQueue bounds requests waiting for an engine slot (default
	// 4×MaxInFlight). Requests beyond it receive 429 with Retry-After.
	MaxQueue int

	// DefaultTimeout is the per-request deadline when the request does not
	// set ?timeout (default 10s).
	DefaultTimeout time.Duration

	// MaxTimeout clamps the ?timeout parameter (default 60s).
	MaxTimeout time.Duration

	// MaxBatch bounds the node count of one /v1/batch request
	// (default 256).
	MaxBatch int

	// Role places the server in a replicated cluster: RoleLeader serves
	// the mutation feed at /v1/replication, RoleFollower replays one (see
	// LeaderURL) and rejects direct writes. The default, RoleStandalone,
	// is the single-process mode with no replication endpoints; it
	// commits writes as a leader does. Both replicated roles require a
	// *DynamicGraph source.
	Role Role

	// LeaderURL is the base URL of the leader's HTTP API (required when
	// Role is RoleFollower, ignored otherwise).
	LeaderURL string

	// ReplicationLog bounds the leader's in-memory mutation log, in
	// batches (default 1024). A follower further behind than the retained
	// window cannot catch up incrementally and must restart from the
	// leader's base graph.
	ReplicationLog int

	// TraceRing retains the last N completed query traces for GET
	// /debug/queries. 0 (the default) keeps no ring. Tracing — span
	// recording on the request path — is active when TraceRing or
	// SlowQuery is set; otherwise handlers carry a nil trace and every
	// span call is a free pointer test.
	TraceRing int

	// SlowQuery, when positive, emits one structured log line (level
	// WARN, with the request id, cache outcome and per-stage spans) for
	// every query endpoint request at least this slow. 0 disables it.
	SlowQuery time.Duration

	// Logger receives the server's structured logs (slow queries). nil
	// discards them.
	Logger *slog.Logger
}

// A cached single-source row is a dense length-n []float64 (~8n bytes),
// so a fixed entry count would admit entries × O(n) bytes on web-scale
// graphs. The default bound targets a byte budget instead.
const defaultCacheBudgetBytes = 256 << 20

func defaultCacheEntries(n int32) int {
	per := 16 * int64(n) // dense row + result metadata, with margin
	if per < 1 {
		per = 1
	}
	e := defaultCacheBudgetBytes / per
	if e > 4096 {
		e = 4096
	}
	if e < 16 {
		e = 16
	}
	return int(e)
}

func (c Config) withDefaults() Config {
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Role == "" {
		c.Role = RoleStandalone
	}
	if c.ReplicationLog <= 0 {
		c.ReplicationLog = 1024
	}
	if c.TraceRing < 0 {
		c.TraceRing = 0
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	return c
}

// Server handles the simrankd HTTP API. Construct with New, mount via
// Handler (it implements http.Handler itself), and call Drain before
// shutting the listener down so load balancers see /healthz flip first.
type Server struct {
	cfg      Config
	client   *simpush.Client
	dyn      *simpush.DynamicGraph // nil when the source is static
	cache    *cache.Cache
	adm      *admission
	mux      *http.ServeMux
	draining atomic.Bool
	start    time.Time
	rep      replication
	mutMu    sync.Mutex // serializes writes: bound check, commit and log append

	ring   *obs.Ring    // last-N completed traces (nil = disabled)
	logger *slog.Logger // slow-query and serving logs

	errors     atomic.Uint64 // responses with status >= 400
	byKind     [kindCount]atomic.Uint64
	lat        [kindCount][pathCount]latencyHist
	lastEpoch  atomic.Uint64             // highest epoch seen; drives opportunistic sweeps
	stageNanos [stageCount]atomic.Uint64 // cumulative engine-stage wall time

	// Epoch-delta carry-forward state (see delta.go). The engine options
	// and the BFS depth are written once in New and read-only afterwards;
	// the counters are updated by the commit hook.
	engineOpts        simpush.Options
	carryDepth        int
	deltas            atomic.Uint64
	deltaTotals       atomic.Uint64
	deltaAffectedLast atomic.Uint64
}

// Engine stage indices for the cumulative stage-time counters surfaced
// in /metricsz; order matches simpush.StageDurations.
const (
	stageWalk = iota
	stageSourcePush
	stageGamma
	stageReversePush
	stageCount
)

var stageNames = [stageCount]string{"walk", "source_push", "gamma", "reverse_push"}

// recordStages folds one computed result's stage durations into the
// cumulative per-stage counters (a few atomic adds — always on, even
// with tracing disabled).
func (s *Server) recordStages(d simpush.StageDurations) {
	s.stageNanos[stageWalk].Add(uint64(max(d.Walk, 0)))
	s.stageNanos[stageSourcePush].Add(uint64(max(d.SourcePush, 0)))
	s.stageNanos[stageGamma].Add(uint64(max(d.Gamma, 0)))
	s.stageNanos[stageReversePush].Add(uint64(max(d.ReversePush, 0)))
}

// endpoint indices for the per-kind request counters.
const (
	kSingleSource = iota
	kTopK
	kPair
	kBatch
	kEdges
	kReplication
	kHealth
	kMetrics
	kDebug
	kindCount
)

var kindNames = [kindCount]string{
	"single-source", "topk", "pair", "batch", "edges", "replication", "healthz", "metricsz",
	"debug-queries",
}

// New builds a Server around an existing Client. If the client's graph
// source is a *DynamicGraph the mutation endpoints are live; against a
// static source they answer 501.
func New(cfg Config) (*Server, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("server: Config.Client is required")
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries(cfg.Client.Graph().N())
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		client: cfg.Client,
		cache:  cache.New(cfg.CacheEntries),
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		ring:   obs.NewRing(cfg.TraceRing),
		logger: cfg.Logger,
	}
	if dyn, ok := cfg.Client.Source().(*simpush.DynamicGraph); ok {
		s.dyn = dyn
		s.installCarryForward()
	}
	if err := validateRole(cfg.Role); err != nil {
		return nil, err
	}
	s.rep.role = cfg.Role
	if cfg.Role == RoleLeader || cfg.Role == RoleFollower {
		if s.dyn == nil {
			return nil, fmt.Errorf("server: role %s requires a *DynamicGraph source", cfg.Role)
		}
		// Commit the base graph before serving: both sides of a
		// replication stream must start from epoch 1 = the loaded graph,
		// so mutation batches map 1:1 onto epochs 2, 3, ... on each.
		if _, epoch, err := s.dyn.SnapshotEpoch(); err != nil {
			return nil, fmt.Errorf("server: committing base snapshot: %w", err)
		} else {
			s.lastEpoch.Store(epoch)
		}
	}
	switch cfg.Role {
	case RoleLeader:
		s.rep.log = newRepLog(cfg.ReplicationLog)
	case RoleFollower:
		if cfg.LeaderURL == "" {
			return nil, fmt.Errorf("server: role follower requires LeaderURL")
		}
		s.rep.leaderURL = strings.TrimRight(cfg.LeaderURL, "/")
	}
	s.mux.HandleFunc("/v1/single-source", s.count(kSingleSource, s.handleSingleSource))
	s.mux.HandleFunc("/v1/topk", s.count(kTopK, s.handleTopK))
	s.mux.HandleFunc("/v1/pair", s.count(kPair, s.handlePair))
	s.mux.HandleFunc("/v1/batch", s.count(kBatch, s.handleBatch))
	s.mux.HandleFunc("/v1/edges", s.count(kEdges, s.handleEdges))
	s.mux.HandleFunc("/v1/replication", s.count(kReplication, s.handleReplication))
	s.mux.HandleFunc("/healthz", s.count(kHealth, s.handleHealthz))
	s.mux.HandleFunc("/metricsz", s.count(kMetrics, s.handleMetricsz))
	s.mux.HandleFunc("/debug/queries", s.count(kDebug, s.handleDebugQueries))
	return s, nil
}

// Handler returns the root handler of the API.
func (s *Server) Handler() http.Handler { return s }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain flips /healthz to 503 so load balancers stop routing here, while
// all other endpoints keep serving. Call it before http.Server.Shutdown;
// pair with Client.Close once the listener has drained.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Cache exposes the result cache, for tests that read its counters.
func (s *Server) Cache() *cache.Cache { return s.cache }

// tracing reports whether requests record spans (ring or slow-query log
// configured). When false the per-request trace stays nil and every span
// call on the request path is a free pointer test.
func (s *Server) tracing() bool {
	return s.ring != nil || s.cfg.SlowQuery > 0
}

// count is the per-endpoint middleware: request counters, the
// X-Request-Id echo (satellite of the trace layer — every response,
// including 4xx/5xx, carries the correlation id), and — for the query
// endpoints when tracing is on — the request-scoped trace with its
// /debug/queries record and slow-query log line.
func (s *Server) count(kind int, h http.HandlerFunc) http.HandlerFunc {
	traced := kind <= kEdges // query endpoints only; probes stay out of the ring
	return func(w http.ResponseWriter, r *http.Request) {
		s.byKind[kind].Add(1)
		sw := &statusWriter{ResponseWriter: w, server: s}
		id := obs.SanitizeRequestID(r.Header.Get(obs.RequestIDHeader))
		if id == "" {
			id = obs.NewRequestID()
		}
		// Set before the handler runs so error paths inherit it too.
		w.Header().Set(obs.RequestIDHeader, id)
		if !traced || !s.tracing() {
			h(sw, r)
			return
		}
		tr := obs.NewTrace(id, kindNames[kind], r.Method+" "+r.URL.RequestURI())
		h(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		rec := tr.Finish(sw.status())
		s.ring.Add(rec)
		if s.cfg.SlowQuery > 0 && rec.DurationMs >= float64(s.cfg.SlowQuery)/float64(time.Millisecond) {
			s.logger.Warn("slow query",
				"request_id", rec.RequestID,
				"endpoint", rec.Endpoint,
				"query", rec.Query,
				"status", rec.Status,
				"epoch", rec.Epoch,
				"cache", rec.Cache,
				"duration_ms", rec.DurationMs,
				"spans", rec.Spans,
			)
		}
	}
}

// statusWriter counts error responses and remembers the status code for
// the trace record without wrapping every handler in its own
// bookkeeping.
type statusWriter struct {
	http.ResponseWriter
	server *Server
	wrote  bool
	code   int
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.wrote = true
		sw.code = status
		if status >= 400 {
			sw.server.errors.Add(1)
		}
	}
	sw.ResponseWriter.WriteHeader(status)
}

// status returns the response status (200 when the handler wrote a body
// without an explicit WriteHeader).
func (sw *statusWriter) status() int {
	if !sw.wrote {
		return http.StatusOK
	}
	return sw.code
}

// noteEpoch records the epoch a request pinned and opportunistically
// sweeps superseded entries when it advances. Correctness does not depend
// on the sweep (epochs are in the cache key); it only reclaims memory
// promptly on fast-mutating sources.
func (s *Server) noteEpoch(epoch uint64) {
	for {
		old := s.lastEpoch.Load()
		if old >= epoch {
			return
		}
		if s.lastEpoch.CompareAndSwap(old, epoch) {
			s.cache.Sweep(epoch)
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.rep.role == RoleFollower {
		if s.rep.diverged.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "diverged", "error": s.rep.lastError(),
			})
			return
		}
		// A follower is not ready until it has replayed up to the leader's
		// epoch at subscribe time — routers must never see a cold follower
		// as healthy and send it traffic that expects the leader's state.
		if !s.rep.synced.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":        "catching_up",
				"applied_epoch": s.dyn.Epoch(),
				"target_epoch":  s.rep.syncTarget.Load(),
			})
			return
		}
	}
	view, err := s.client.View(r.Context())
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, Health{
		Status:   "ok",
		Role:     s.role(),
		Epoch:    view.Epoch(),
		N:        view.Graph().N(),
		Lag:      s.lag(),
		InFlight: s.adm.inFlight(),
	})
}

// Health is the 200 body of GET /healthz: everything a router needs to
// decide where reads may go, in one response. Lag is nonzero only on a
// follower that trails the highest leader epoch it has seen; InFlight
// counts engine computations holding an admission slot.
type Health struct {
	Status   string `json:"status"`
	Role     Role   `json:"role"`
	Epoch    uint64 `json:"epoch"`
	N        int32  `json:"n"`
	Lag      uint64 `json:"lag"`
	InFlight int    `json:"in_flight"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
