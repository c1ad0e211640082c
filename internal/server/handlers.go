package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	return opts
}

func (p queryParams) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "eps=%g;delta=%g", p.eps, p.delta)
	if p.hasSeed {
		fmt.Fprintf(&b, ";seed=%d", p.seed)
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

// readSpec is what one read adds to the shared lookup: its source node,
// its cache key's aux dimension, how its cached value derives from the
// engine result, and, for a GET endpoint, its response body.
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

// rowValue caches the engine result itself: the single-source row.
func rowValue(res *simpush.Result) any { return res }

// checkNode answers 404 node_not_found unless u is a node of the pinned
// graph g; what names u's role in the message.
func checkNode(g *simpush.Graph, what string, u int32) *httpError {
	if g.HasNode(u) {
		return nil
	}
	return mapError(fmt.Errorf("simpush: %w: %s %d not in [0, %d)", simpush.ErrNodeOutOfRange, what, u, g.N()))
}

// serveRead is the one read path of /v1/single-source, /v1/topk and
// /v1/pair: query parameters, deadline, pinned view, cache lookup, spans,
// latency histogram and error mapping. parse reads the endpoint's own
// parameters.
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
		if herr := checkNode(view.Graph(), "target node", *rd.target); herr != nil {
			s.writeError(w, herr)
			return
		}
	}

	tr := obs.FromContext(r.Context())
	cStart := tr.Now()
	v, outcome, err := s.lookup(ctx, tr, view, kind, rd, qp)
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

// lookup is the one cache lookup of every read, GET endpoints and batch
// rows alike: the entry of (pinned epoch, kind, node, aux, params), joined
// when an identical read is already computing it, and filled by an
// admitted engine run on a miss.
func (s *Server) lookup(ctx context.Context, tr *obs.Trace, view *simpush.View, kind int, rd readSpec, qp queryParams) (any, cache.Outcome, error) {
	key := cache.Key{Epoch: view.Epoch(), Kind: kindNames[kind], Node: rd.node, Aux: rd.aux, Params: qp.canonical()}
	return s.cache.Do(ctx, key, func(fctx context.Context) (any, error) {
		return s.computeRead(fctx, tr, view, rd, qp)
	})
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
		s.adm.recordService(time.Since(t0))
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

// GET /v1/single-source?node=&eps=&delta=&seed=&timeout=&dense=
func (s *Server) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, kSingleSource, func(r *http.Request) (readSpec, *httpError) {
		u, herr := parseNode(r, "node")
		if herr != nil {
			return readSpec{}, herr
		}
		dense := r.URL.Query().Get("dense") == "1"
		return readSpec{
			node:  u,
			value: rowValue,
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

// GET /v1/topk?node=&k=&eps=&delta=&seed=&timeout=
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

// GET /v1/pair?u=&v=&eps=&delta=&seed=&timeout=
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

// batchRequest is the POST /v1/batch body. Any other field is ignored.
type batchRequest struct {
	Nodes []int32 `json:"nodes"`
	K     int     `json:"k"`
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
	Seed  *uint64 `json:"seed"`
}

// POST /v1/batch — many single-source queries pinned to one epoch. Every
// node is checked against the pinned graph first. Each distinct node is
// then one lookup of the entry /v1/single-source uses, so a batch row and
// a concurrent GET of the same source share one engine run.
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
	g := view.Graph()
	lookupOf := make(map[int32]int, len(req.Nodes)) // node -> index into nodes
	var nodes []int32
	for _, u := range req.Nodes {
		if herr := checkNode(g, "query node", u); herr != nil {
			s.writeError(w, herr)
			return
		}
		if _, dup := lookupOf[u]; !dup {
			lookupOf[u] = len(nodes)
			nodes = append(nodes, u)
		}
	}

	// One span for all the lookups (per-row stage spans would swamp the
	// trace); the cumulative stage counters still see every engine run.
	tr := obs.FromContext(r.Context())
	t0 := tr.Now()
	rows, outcomes, err := s.lookupRows(ctx, view, nodes, qp)
	tr.SpanSince("engine_batch", t0)
	if err != nil {
		s.writeError(w, mapError(err))
		return
	}

	results := make([]map[string]any, len(req.Nodes))
	cached := 0
	for i, node := range req.Nodes {
		j := lookupOf[node]
		if outcomes[j] == cache.Hit {
			cached++
		}
		entry := map[string]any{"node": node}
		if req.K > 0 {
			entry["results"] = rankedEntries(simpush.TopK(rows[j].Scores, req.K, node))
		} else {
			sp := sparseScores(rows[j].Scores)
			entry["nnz"] = len(sp)
			entry["scores"] = sp
		}
		results[i] = entry
	}
	// A batch is an engine sample iff one of its lookups ran the engine.
	path := pathCache
	if slices.Contains(outcomes, cache.Computed) {
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

// lookupRows looks up the single-source row of each node, with at most
// MaxInFlight lookups running at once; each miss holds one admission slot
// for its own engine run. The first error cancels the lookups still
// running and is returned.
func (s *Server) lookupRows(ctx context.Context, view *simpush.View, nodes []int32, qp queryParams) ([]*simpush.Result, []cache.Outcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rows := make([]*simpush.Result, len(nodes))
	outcomes := make([]cache.Outcome, len(nodes))
	next := make(chan int, len(nodes))
	for i := range nodes {
		next <- i
	}
	close(next)
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for range min(s.cfg.MaxInFlight, len(nodes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				v, outcome, err := s.lookup(ctx, nil, view, kSingleSource, readSpec{node: nodes[i], value: rowValue}, qp)
				if err != nil {
					fail(err)
					return
				}
				rows[i], outcomes[i] = v.(*simpush.Result), outcome
			}
		}()
	}
	wg.Wait()
	return rows, outcomes, firstErr
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

// POST /v1/edges adds edges; DELETE /v1/edges removes them. Standalone
// daemons and leaders commit the whole request through commitEdges, as
// one epoch advance or not at all; a follower refuses direct writes.
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
	if s.rep.role == RoleFollower {
		// Mutations flow leader → follower only; accepting a direct write
		// here would fork the follower's epoch sequence off the leader's.
		s.writeError(w, httpErrf(http.StatusConflict, "not_leader",
			"this replica is a follower; send mutations to the leader at %s", s.rep.leaderURL))
		return
	}
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
	epoch, err := s.commitEdges(adds, removes)
	if err != nil {
		s.writeError(w, httpErrf(http.StatusBadRequest, "bad_edge", "%v (nothing applied)", err))
		return
	}
	s.observeLatency(kEdges, pathEngine, time.Since(start))
	writeJSON(w, http.StatusOK, map[string]any{"applied": len(edges), "epoch": epoch})
}
