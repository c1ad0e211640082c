package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/cache"
	"github.com/simrank/simpush/internal/obs"
)

// httpError carries an HTTP status plus a stable machine-readable code;
// every error response has the shape {"error": msg, "code": code}.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrf(status int, code, format string, args ...any) *httpError {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// mapError classifies an error from the query path into an HTTP response.
func mapError(err error) *httpError {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he
	case errors.Is(err, simpush.ErrNodeOutOfRange):
		return httpErrf(http.StatusNotFound, "node_not_found", "%v", err)
	case errors.Is(err, simpush.ErrInvalidOptions):
		return httpErrf(http.StatusBadRequest, "invalid_options", "%v", err)
	case errors.Is(err, errSaturated):
		return httpErrf(http.StatusTooManyRequests, "saturated", "%v", err)
	case errors.Is(err, simpush.ErrClientClosed):
		return httpErrf(http.StatusServiceUnavailable, "shutting_down", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return httpErrf(http.StatusGatewayTimeout, "deadline_exceeded", "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		// 499: nginx's "client closed request"; the client is gone, the
		// status is for the access log.
		return httpErrf(499, "client_closed_request", "client closed request")
	default:
		return httpErrf(http.StatusInternalServerError, "internal", "%v", err)
	}
}

// The 429 Retry-After, in seconds, is estimated from the backlog and the
// observed service rate. retryAfterFallbackSec answers before the server
// has seen a computation finish; maxRetryAfterSec clamps the estimate so
// a burst of pathologically slow queries cannot tell clients to stay away
// for hours.
const (
	retryAfterFallbackSec = 1
	maxRetryAfterSec      = 60
)

func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	if he.status == http.StatusTooManyRequests {
		// Derived from the live backlog and observed service rate, not a
		// constant: under a shallow queue clients come back almost at once,
		// under a deep one they actually wait long enough to find a slot.
		sec := s.adm.estimateRetryAfter(retryAfterFallbackSec, maxRetryAfterSec)
		w.Header().Set("Retry-After", strconv.Itoa(sec))
	}
	writeJSON(w, he.status, errorBody(w, he.msg, he.code))
}

// errorBody builds the standard error payload, echoing the request id
// (set on the response header by the middleware before the handler ran)
// so a client holding only the error JSON can still quote the id.
func errorBody(w http.ResponseWriter, msg, code string) map[string]string {
	body := map[string]string{"error": msg, "code": code}
	if id := w.Header().Get(obs.RequestIDHeader); id != "" {
		body["request_id"] = id
	}
	return body
}

func writeMethodNotAllowed(w http.ResponseWriter, allow ...string) {
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeJSON(w, http.StatusMethodNotAllowed, errorBody(w, "method not allowed", "method_not_allowed"))
}

// queryParams is the parsed, canonicalized per-query parameter set. Its
// canonical encoding doubles as the cache-key params component, so two
// requests spelled differently ("eps=0.05" vs "eps=5e-2") share an entry.
type queryParams struct {
	eps, delta float64
	seed       uint64
	hasSeed    bool
	maxWalks   int
	hasWalks   bool
}

func parseQueryParams(r *http.Request) (queryParams, *httpError) {
	var p queryParams
	q := r.URL.Query()
	if v := q.Get("eps"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, httpErrf(http.StatusBadRequest, "bad_parameter", "eps: %v", err)
		}
		p.eps = f
	}
	if v := q.Get("delta"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, httpErrf(http.StatusBadRequest, "bad_parameter", "delta: %v", err)
		}
		p.delta = f
	}
	if v := q.Get("seed"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, httpErrf(http.StatusBadRequest, "bad_parameter", "seed: %v", err)
		}
		p.seed, p.hasSeed = u, true
	}
	if v := q.Get("max_walks"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return p, httpErrf(http.StatusBadRequest, "bad_parameter", "max_walks: %v", err)
		}
		p.maxWalks, p.hasWalks = n, true
	}
	return p, nil
}

func (p queryParams) options() []simpush.QueryOption {
	var opts []simpush.QueryOption
	if p.eps != 0 {
		opts = append(opts, simpush.WithEpsilon(p.eps))
	}
	if p.delta != 0 {
		opts = append(opts, simpush.WithDelta(p.delta))
	}
	if p.hasSeed {
		opts = append(opts, simpush.WithSeed(p.seed))
	}
	if p.hasWalks {
		opts = append(opts, simpush.WithMaxWalks(p.maxWalks))
	}
	return opts
}

func (p queryParams) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "eps=%g;delta=%g", p.eps, p.delta)
	if p.hasSeed {
		fmt.Fprintf(&b, ";seed=%d", p.seed)
	}
	if p.hasWalks {
		fmt.Fprintf(&b, ";walks=%d", p.maxWalks)
	}
	return b.String()
}

func parseNode(r *http.Request, name string) (int32, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, httpErrf(http.StatusBadRequest, "missing_parameter", "missing required parameter %q", name)
	}
	n, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		return 0, httpErrf(http.StatusBadRequest, "bad_parameter", "%s: %v", name, err)
	}
	return int32(n), nil
}

// requestCtx derives the per-request deadline context: ?timeout= (clamped
// to MaxTimeout) or the configured default. The deadline propagates into
// the engine stages, interrupting walks and pushes mid-query.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, *httpError) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return nil, nil, httpErrf(http.StatusBadRequest, "bad_parameter", "timeout: %v", err)
		}
		if parsed <= 0 {
			return nil, nil, httpErrf(http.StatusBadRequest, "bad_parameter", "timeout must be positive")
		}
		d = parsed
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// scoreEntry is one sparse score-vector entry.
type scoreEntry struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

func sparseScores(scores []float64) []scoreEntry {
	out := make([]scoreEntry, 0, 64)
	for v, sc := range scores {
		if sc != 0 {
			out = append(out, scoreEntry{Node: int32(v), Score: sc})
		}
	}
	return out
}

func rankedEntries(rs []simpush.Ranked) []scoreEntry {
	out := make([]scoreEntry, len(rs))
	for i, r := range rs {
		out[i] = scoreEntry{Node: r.Node, Score: r.Score}
	}
	return out
}

// pinView snapshots the source once for this request, pinning the epoch
// every cache key and computation of the request uses, and records the
// snapshot span plus the pinned epoch on the request trace.
func (s *Server) pinView(ctx context.Context) (*simpush.View, *httpError) {
	tr := obs.FromContext(ctx)
	t0 := tr.Now()
	view, err := s.client.View(ctx)
	if err != nil {
		return nil, mapError(err)
	}
	tr.SpanSince("snapshot", t0)
	tr.SetEpoch(view.Epoch())
	s.noteEpoch(view.Epoch())
	return view, nil
}

// outcomePath maps a cache outcome to a latency-histogram path: only the
// caller that actually ran the engine is an engine sample; hits and
// coalesced shares both measure the cache/wait path.
func outcomePath(o cache.Outcome) int {
	if o == cache.Computed {
		return pathEngine
	}
	return pathCache
}

// readSpec is what one GET read endpoint adds to the shared read path:
// its source node, its cache key's aux dimension, how its cached value
// derives from the engine result, and its response body.
type readSpec struct {
	node int32
	aux  int64
	// target, when set, must be a node of the pinned view (pair's v). It
	// is checked before the cache lookup, so a bad target never takes an
	// admission slot.
	target *int32
	value  func(*simpush.Result) any
	// body builds the endpoint's response from the cached value; the read
	// path adds "epoch" and "cache".
	body func(v any) map[string]any
}

// serveRead is the one read path of /v1/single-source, /v1/topk and
// /v1/pair: query parameters, deadline, pinned view, cache lookup (an
// admitted engine run on a miss), spans, latency histogram and error
// mapping. parse reads the endpoint's own parameters.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, kind int, parse func(*http.Request) (readSpec, *httpError)) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	start := time.Now()
	rd, herr := parse(r)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	qp, herr := parseQueryParams(r)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	ctx, cancel, herr := s.requestCtx(r)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer cancel()
	view, herr := s.pinView(ctx)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	if rd.target != nil {
		if g := view.Graph(); !g.HasNode(*rd.target) {
			s.writeError(w, mapError(fmt.Errorf("simpush: %w: target node %d not in [0, %d)",
				simpush.ErrNodeOutOfRange, *rd.target, g.N())))
			return
		}
	}

	tr := obs.FromContext(r.Context())
	key := cache.Key{Epoch: view.Epoch(), Kind: kindNames[kind], Node: rd.node, Aux: rd.aux, Params: qp.canonical()}
	cStart := tr.Now()
	v, outcome, err := s.cache.Do(ctx, key, func(fctx context.Context) (any, error) {
		return s.computeRead(fctx, tr, view, rd, qp)
	})
	tr.SpanSince("cache", cStart)
	if err != nil {
		s.writeError(w, mapError(err))
		return
	}
	tr.SetCache(outcome.String())
	s.observeLatency(kind, outcomePath(outcome), time.Since(start))
	resp := rd.body(v)
	resp["epoch"] = view.Epoch()
	resp["cache"] = outcome.String()
	writeJSON(w, http.StatusOK, resp)
}

// computeRead is a cache miss's engine run. The flight context the cache
// supplies (cancelled only when every interested caller has left) is
// capped by the server-side maximum timeout, and the run holds one
// admission slot; a queued wait becomes an admission_wait span.
//
// The trace is passed explicitly rather than read from ctx: a coalesced
// computation runs under the cache's flight context, which is detached
// from any single request, so only the leader's captured trace reaches
// this point.
func (s *Server) computeRead(fctx context.Context, tr *obs.Trace, view *simpush.View, rd readSpec, qp queryParams) (any, error) {
	ctx, cancel := context.WithTimeout(fctx, s.cfg.MaxTimeout)
	defer cancel()
	wait, err := s.adm.acquire(ctx)
	if err != nil {
		return nil, err
	}
	if wait > 0 && tr.Enabled() {
		tr.Span("admission_wait", time.Now().Add(-wait), wait)
	}
	t0 := time.Now()
	defer func() {
		s.adm.recordService(time.Since(t0), 1)
		s.adm.release()
	}()
	res, err := view.SingleSource(ctx, rd.node, qp.options()...)
	if err != nil {
		return nil, err
	}
	// The stage durations feed the cumulative stage counters and, when
	// tracing, four engine-stage spans on the leader's trace.
	d := res.Durations
	s.recordStages(d)
	tr.EngineStages(d.Walk, d.SourcePush, d.Gamma, d.ReversePush)
	return rd.value(res), nil
}

// GET /v1/single-source?node=&eps=&delta=&seed=&max_walks=&timeout=&dense=
func (s *Server) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, kSingleSource, func(r *http.Request) (readSpec, *httpError) {
		u, herr := parseNode(r, "node")
		if herr != nil {
			return readSpec{}, herr
		}
		dense := r.URL.Query().Get("dense") == "1"
		return readSpec{
			node:  u,
			value: func(res *simpush.Result) any { return res },
			body: func(v any) map[string]any {
				res := v.(*simpush.Result)
				resp := map[string]any{"node": u, "n": len(res.Scores), "l": res.L, "walks": res.Walks}
				if dense {
					resp["dense_scores"] = res.Scores
				} else {
					sp := sparseScores(res.Scores)
					resp["nnz"] = len(sp)
					resp["scores"] = sp
				}
				return resp
			},
		}, nil
	})
}

// GET /v1/topk?node=&k=&eps=&delta=&seed=&max_walks=&timeout=
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, kTopK, func(r *http.Request) (readSpec, *httpError) {
		u, herr := parseNode(r, "node")
		if herr != nil {
			return readSpec{}, herr
		}
		k := 10
		if v := r.URL.Query().Get("k"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return readSpec{}, httpErrf(http.StatusBadRequest, "bad_parameter", "k must be a positive integer")
			}
			k = n
		}
		return readSpec{
			node:  u,
			aux:   int64(k),
			value: func(res *simpush.Result) any { return simpush.TopK(res.Scores, k, u) },
			body: func(v any) map[string]any {
				return map[string]any{"node": u, "k": k, "results": rankedEntries(v.([]simpush.Ranked))}
			},
		}, nil
	})
}

// GET /v1/pair?u=&v=&eps=&delta=&seed=&max_walks=&timeout=
func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, kPair, func(r *http.Request) (readSpec, *httpError) {
		u, herr := parseNode(r, "u")
		if herr != nil {
			return readSpec{}, herr
		}
		target, herr := parseNode(r, "v")
		if herr != nil {
			return readSpec{}, herr
		}
		return readSpec{
			node:   u,
			aux:    int64(target),
			target: &target,
			value:  func(res *simpush.Result) any { return res.Scores[target] },
			body: func(v any) map[string]any {
				return map[string]any{"u": u, "v": target, "score": v.(float64)}
			},
		}, nil
	})
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	Nodes       []int32 `json:"nodes"`
	K           int     `json:"k"`
	Parallelism int     `json:"parallelism"`
	Eps         float64 `json:"eps"`
	Delta       float64 `json:"delta"`
	Seed        *uint64 `json:"seed"`
	MaxWalks    *int    `json:"max_walks"`
}

// POST /v1/batch — many single-source queries pinned to one epoch. The
// batch reads and fills the same per-node single-source cache entries the
// GET endpoint uses: cached nodes are reused, the rest run over the
// engine pool under one admission slot.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost)
		return
	}
	start := time.Now()
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, httpErrf(http.StatusBadRequest, "bad_body", "decoding JSON body: %v", err))
		return
	}
	if len(req.Nodes) == 0 {
		s.writeError(w, httpErrf(http.StatusBadRequest, "missing_parameter", "body must name at least one node"))
		return
	}
	if len(req.Nodes) > s.cfg.MaxBatch {
		s.writeError(w, httpErrf(http.StatusRequestEntityTooLarge, "batch_too_large",
			"batch of %d nodes exceeds the limit of %d", len(req.Nodes), s.cfg.MaxBatch))
		return
	}
	if req.K < 0 {
		s.writeError(w, httpErrf(http.StatusBadRequest, "bad_parameter", "k must be >= 0"))
		return
	}
	qp := queryParams{eps: req.Eps, delta: req.Delta}
	if req.Seed != nil {
		qp.seed, qp.hasSeed = *req.Seed, true
	}
	if req.MaxWalks != nil {
		qp.maxWalks, qp.hasWalks = *req.MaxWalks, true
	}
	ctx, cancel, herr := s.requestCtx(r)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer cancel()
	view, herr := s.pinView(ctx)
	if herr != nil {
		s.writeError(w, herr)
		return
	}

	// Split the batch into cache hits and misses on this epoch; duplicate
	// nodes within one batch are computed once.
	tr := obs.FromContext(r.Context())
	params := qp.canonical()
	rows := make([]*simpush.Result, len(req.Nodes))
	idxByNode := make(map[int32][]int)
	var missing []int32
	cached := 0
	for i, node := range req.Nodes {
		key := cache.Key{Epoch: view.Epoch(), Kind: kindNames[kSingleSource], Node: node, Params: params}
		if v, ok := s.cache.Get(key); ok {
			rows[i] = v.(*simpush.Result)
			cached++
			continue
		}
		if _, dup := idxByNode[node]; !dup {
			missing = append(missing, node)
		}
		idxByNode[node] = append(idxByNode[node], i)
	}

	if len(missing) > 0 {
		// Admission holds one slot per batch worker, so concurrent batches
		// cannot multiply engine concurrency past MaxInFlight: the batch
		// waits (bounded) for its first slot and widens only by the slots
		// that are free right now.
		want := req.Parallelism
		if want <= 0 || want > s.cfg.MaxInFlight {
			want = s.cfg.MaxInFlight
		}
		if want > len(missing) {
			want = len(missing)
		}
		held, wait, err := s.adm.acquireUpTo(ctx, want)
		if err != nil {
			s.writeError(w, mapError(err))
			return
		}
		if wait > 0 && tr.Enabled() {
			tr.Span("admission_wait", time.Now().Add(-wait), wait)
		}
		t0 := time.Now()
		computed, err := view.BatchSingleSource(ctx, missing, held, qp.options()...)
		s.adm.recordService(time.Since(t0), held)
		s.adm.releaseN(held)
		// One span for the whole engine batch (per-row stage spans would
		// swamp the trace); the cumulative stage counters still see every
		// computed row.
		tr.SpanSince("engine_batch", t0)
		if err != nil {
			s.writeError(w, mapError(err))
			return
		}
		for j, res := range computed {
			s.recordStages(res.Durations)
			for _, i := range idxByNode[missing[j]] {
				rows[i] = res
			}
			key := cache.Key{Epoch: view.Epoch(), Kind: kindNames[kSingleSource], Node: missing[j], Params: params}
			s.cache.Put(key, res)
		}
	}

	results := make([]map[string]any, len(req.Nodes))
	for i, node := range req.Nodes {
		entry := map[string]any{"node": node}
		if req.K > 0 {
			entry["results"] = rankedEntries(simpush.TopK(rows[i].Scores, req.K, node))
		} else {
			sp := sparseScores(rows[i].Scores)
			entry["nnz"] = len(sp)
			entry["scores"] = sp
		}
		results[i] = entry
	}
	// A batch is an engine sample iff it computed at least one row;
	// fully-cached batches measure the lookup path.
	path := pathCache
	if len(missing) > 0 {
		path = pathEngine
	}
	s.observeLatency(kBatch, path, time.Since(start))
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":   view.Epoch(),
		"count":   len(req.Nodes),
		"cached":  cached,
		"results": results,
	})
}

// edgeSpec is one edge of a mutation request.
type edgeSpec struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// maxNodeGrowth bounds how far one POST /v1/edges may extend the node
// range past the current snapshot's n. Every per-node array on every
// replica grows with n, so without it one edge naming id 10^7 costs each
// replica ~1 GB; with it, growth scales with write volume instead.
const maxNodeGrowth = 1024

// edgesRequest accepts either a single edge ({"from":u,"to":v}) or a
// list ({"edges":[...]}).
type edgesRequest struct {
	From  *int32     `json:"from"`
	To    *int32     `json:"to"`
	Edges []edgeSpec `json:"edges"`
}

// POST /v1/edges adds edges; DELETE /v1/edges marks them for removal.
// Removal validation is lazy (the dynamic graph's contract): removing a
// nonexistent edge surfaces as an error on the next snapshot — that is,
// the next query — and the source then recovers.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodDelete {
		writeMethodNotAllowed(w, http.MethodPost, http.MethodDelete)
		return
	}
	start := time.Now()
	if s.dyn == nil {
		s.writeError(w, httpErrf(http.StatusNotImplemented, "static_source",
			"graph source is static; serve a DynamicGraph to enable mutations"))
		return
	}
	var req edgesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, httpErrf(http.StatusBadRequest, "bad_body", "decoding JSON body: %v", err))
		return
	}
	edges := req.Edges
	if req.From != nil || req.To != nil {
		if req.From == nil || req.To == nil {
			s.writeError(w, httpErrf(http.StatusBadRequest, "bad_body", `"from" and "to" must be set together`))
			return
		}
		edges = append(edges, edgeSpec{From: *req.From, To: *req.To})
	}
	if len(edges) == 0 {
		s.writeError(w, httpErrf(http.StatusBadRequest, "missing_parameter", "body names no edges"))
		return
	}
	if r.Method == http.MethodDelete {
		// Lazy removal validation is for edges that may have existed and
		// raced away — ids that can never exist must not poison the next
		// snapshot (a 500 on some unrelated user's query); reject them
		// eagerly like POST does.
		for _, e := range edges {
			if e.From < 0 || e.To < 0 {
				s.writeError(w, httpErrf(http.StatusBadRequest, "bad_edge",
					"negative node id (%d, %d)", e.From, e.To))
				return
			}
		}
	} else {
		// Checked before anything is applied, so a refused batch never
		// reaches the graph or the replication log.
		n := int64(s.client.Graph().N())
		for _, e := range edges {
			if max(int64(e.From), int64(e.To)) >= n+maxNodeGrowth {
				s.writeError(w, httpErrf(http.StatusBadRequest, "bad_edge",
					"edge (%d, %d): node ids must be below n+%d = %d (nothing applied)", e.From, e.To, maxNodeGrowth, n+maxNodeGrowth))
				return
			}
		}
	}
	switch s.rep.role {
	case RoleFollower:
		// Mutations flow leader → follower only; accepting a direct write
		// here would fork the follower's epoch sequence off the leader's.
		s.writeError(w, httpErrf(http.StatusConflict, "not_leader",
			"this replica is a follower; send mutations to the leader at %s", s.rep.leaderURL))
		return
	case RoleLeader:
		// Leader mutations are atomic (all-or-nothing, exactly one epoch
		// advance per request) and recorded in the replication log.
		pairs := make([][2]int32, len(edges))
		for i, e := range edges {
			pairs[i] = [2]int32{e.From, e.To}
		}
		var adds, removes [][2]int32
		if r.Method == http.MethodPost {
			adds = pairs
		} else {
			removes = pairs
		}
		epoch, err := s.applyLeaderBatch(adds, removes)
		if err != nil {
			s.writeError(w, httpErrf(http.StatusBadRequest, "bad_edge", "%v (batch rejected, nothing applied)", err))
			return
		}
		s.observeLatency(kEdges, pathEngine, time.Since(start))
		writeJSON(w, http.StatusOK, map[string]any{"applied": len(edges), "epoch": epoch})
		return
	}
	applied := 0
	for _, e := range edges {
		if r.Method == http.MethodPost {
			if err := s.dyn.AddEdge(e.From, e.To); err != nil {
				s.writeError(w, httpErrf(http.StatusBadRequest, "bad_edge", "%v (applied %d of %d)", err, applied, len(edges)))
				return
			}
		} else {
			s.dyn.RemoveEdge(e.From, e.To)
		}
		applied++
	}
	s.observeLatency(kEdges, pathEngine, time.Since(start))
	writeJSON(w, http.StatusOK, map[string]any{"applied": applied})
}
