package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/simrank/simpush/internal/obs"
)

// ReplicaHeader names the response header the proxy stamps with the
// replica that served each request — smoke tests and operators use it to
// see routing decisions without log-diving.
const ReplicaHeader = "X-Simproxy-Replica"

// Config parameterizes a Proxy.
type Config struct {
	// Set is the probed replica roster. Required.
	Set *Set

	// Policy is the read-routing policy name: "hash" (cache affinity,
	// the default), "least-loaded" or "round-robin".
	Policy string

	// Timeout caps one proxied request round-trip (default 90s — above
	// the replicas' own MaxTimeout so the replica-side deadline, with its
	// more precise 504, fires first).
	Timeout time.Duration

	// Logger receives the proxy's structured logs (failovers, bad
	// gateways). nil discards them.
	Logger *slog.Logger
}

// Proxy is the simproxy HTTP handler: it fronts a replica Set, routes
// reads by policy, sends writes to the leader only, and fails over.
type Proxy struct {
	set    *Set
	policy RoutingPolicy
	client *http.Client
	mux    *http.ServeMux
	start  time.Time
	logger *slog.Logger

	requests  atomic.Uint64
	writes    atomic.Uint64
	retries   atomic.Uint64
	failovers atomic.Uint64 // requests answered by the retry replica
	noReplica atomic.Uint64
	badGW     atomic.Uint64
}

// New builds a Proxy over cfg.Set.
func New(cfg Config) (*Proxy, error) {
	if cfg.Set == nil {
		return nil, fmt.Errorf("cluster: Config.Set is required")
	}
	if cfg.Policy == "" {
		cfg.Policy = "hash"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 90 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	policy, err := NewPolicy(cfg.Policy, cfg.Set.Replicas())
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		set:    cfg.Set,
		policy: policy,
		client: &http.Client{Timeout: cfg.Timeout},
		mux:    http.NewServeMux(),
		start:  time.Now(),
		logger: cfg.Logger,
	}
	p.mux.HandleFunc("/v1/single-source", p.handleRead)
	p.mux.HandleFunc("/v1/topk", p.handleRead)
	p.mux.HandleFunc("/v1/pair", p.handleRead)
	p.mux.HandleFunc("/v1/batch", p.handleRead)
	p.mux.HandleFunc("/v1/edges", p.handleWrite)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/metricsz", p.handleMetricsz)
	return p, nil
}

// Handler returns the proxy's root handler.
func (p *Proxy) Handler() http.Handler { return p.mux }

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Policy returns the active routing policy.
func (p *Proxy) Policy() RoutingPolicy { return p.policy }

// ensureRequestID establishes the request's correlation id: a sane
// client-supplied X-Request-Id is kept, anything else replaced by a
// minted one. The id is set on both the inbound request header (so
// forwarding to a replica propagates it) and the response header (so the
// client sees it even on proxy-originated errors).
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := obs.SanitizeRequestID(r.Header.Get(obs.RequestIDHeader))
	if id == "" {
		id = obs.NewRequestID()
	}
	r.Header.Set(obs.RequestIDHeader, id)
	w.Header().Set(obs.RequestIDHeader, id)
	return id
}

func writeProxyError(w http.ResponseWriter, status int, code, format string, args ...any) {
	body := map[string]string{"error": fmt.Sprintf(format, args...), "code": code}
	if id := w.Header().Get(obs.RequestIDHeader); id != "" {
		body["request_id"] = id
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// affinityNode extracts the routing key of a read: the source node of
// the query (?node, pair's ?u, or a batch body's first node).
func affinityNode(r *http.Request, body []byte) (int32, bool) {
	name := "node"
	if r.URL.Path == "/v1/pair" {
		name = "u"
	}
	if v := r.URL.Query().Get(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 32); err == nil {
			return int32(n), true
		}
		return 0, false
	}
	if len(body) > 0 {
		var b struct {
			Nodes []int32 `json:"nodes"`
		}
		if json.Unmarshal(body, &b) == nil && len(b.Nodes) > 0 {
			return b.Nodes[0], true
		}
	}
	return 0, false
}

// do forwards one request to rep and returns the replica's response. The
// request id rides along so the replica's trace and logs correlate with
// the proxy's.
func (p *Proxy) do(ctx context.Context, rep *Replica, method, uri, contentType, requestID string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.URL+uri, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if requestID != "" {
		req.Header.Set(obs.RequestIDHeader, requestID)
	}
	rep.proxied.Add(1)
	rep.outstanding.Add(1)
	resp, err := p.client.Do(req)
	rep.outstanding.Add(-1)
	return resp, err
}

// relay copies a replica response to the client, stamped with the
// replica that served it.
func (p *Proxy) relay(w http.ResponseWriter, resp *http.Response, rep *Replica) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(ReplicaHeader, rep.Name)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// retryable reports whether a read should fail over to another replica:
// transport failure, load shedding (429) or a server-side error (5xx).
func retryable(resp *http.Response, err error) bool {
	return err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
}

// handleRead routes one query through the policy, failing over once to
// another routable replica on 429/5xx or a transport error.
func (p *Proxy) handleRead(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	id := ensureRequestID(w, r)
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			writeProxyError(w, http.StatusBadRequest, "bad_body", "reading request body: %v", err)
			return
		}
		body = b
	}
	candidates := p.set.Routable()
	if len(candidates) == 0 {
		p.noReplica.Add(1)
		writeProxyError(w, http.StatusServiceUnavailable, "no_replica", "no routable replica (all draining, lagging or unreachable)")
		return
	}
	node, hasNode := affinityNode(r, body)
	rep := p.policy.Pick(node, hasNode, candidates)
	uri := r.URL.RequestURI()
	ct := r.Header.Get("Content-Type")

	resp, err := p.do(r.Context(), rep, r.Method, uri, ct, id, body)
	if retryable(resp, err) && len(candidates) > 1 {
		rest := make([]*Replica, 0, len(candidates)-1)
		for _, c := range candidates {
			if c != rep {
				rest = append(rest, c)
			}
		}
		p.retries.Add(1)
		rep2 := p.policy.Pick(node, hasNode, rest)
		firstStatus := 0
		if err == nil {
			firstStatus = resp.StatusCode
		}
		p.logger.Warn("read retry",
			"request_id", id, "uri", uri, "replica", rep.Name,
			"status", firstStatus, "error", errString(err), "retry_replica", rep2.Name)
		resp2, err2 := p.do(r.Context(), rep2, r.Method, uri, ct, id, body)
		if err2 == nil && (err != nil || !retryable(resp2, nil) || resp2.StatusCode <= resp.StatusCode) {
			// Prefer the retry's answer unless it is strictly worse than
			// what the first replica already said.
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err, rep = resp2, nil, rep2
			p.failovers.Add(1)
		} else if err2 == nil {
			io.Copy(io.Discard, resp2.Body)
			resp2.Body.Close()
		}
	}
	if err != nil {
		p.badGW.Add(1)
		p.logger.Warn("bad gateway", "request_id", id, "uri", uri, "replica", rep.Name, "error", err.Error())
		writeProxyError(w, http.StatusBadGateway, "bad_gateway", "replica %s: %v", rep.Name, err)
		return
	}
	p.relay(w, resp, rep)
}

// errString renders an error for a log attribute ("" when nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// handleWrite forwards a mutation to the leader. Writes are never
// retried: the proxy cannot know whether a failed round-trip applied the
// batch, and replaying it would commit the mutation twice.
func (p *Proxy) handleWrite(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	p.writes.Add(1)
	id := ensureRequestID(w, r)
	leader := p.set.Leader()
	if leader == nil {
		p.noReplica.Add(1)
		writeProxyError(w, http.StatusServiceUnavailable, "no_leader", "no replica currently claims the leader role")
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, "bad_body", "reading request body: %v", err)
		return
	}
	resp, err := p.do(r.Context(), leader, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), id, body)
	if err != nil {
		p.badGW.Add(1)
		p.logger.Warn("bad gateway", "request_id", id, "uri", r.URL.RequestURI(), "replica", leader.Name, "error", err.Error())
		writeProxyError(w, http.StatusBadGateway, "bad_gateway", "leader %s: %v", leader.Name, err)
		return
	}
	p.relay(w, resp, leader)
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	routable := len(p.set.Routable())
	status := http.StatusOK
	state := "ok"
	if routable == 0 {
		status = http.StatusServiceUnavailable
		state = "no_replica"
	}
	epoch, n := p.set.newest()
	body := map[string]any{
		"status":   state,
		"routable": routable,
		"replicas": len(p.set.Replicas()),
		"epoch":    epoch,
		"n":        n,
	}
	if leader := p.set.Leader(); leader != nil {
		body["leader"] = leader.Name
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
