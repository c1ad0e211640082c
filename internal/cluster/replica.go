// Package cluster is the coordination tier that turns N simrankd
// replicas into one serving surface. It contains the three pieces the
// simproxy router is built from:
//
//   - a replica Set with a background health prober that tracks each
//     replica's /healthz state (role, epoch, replication lag, in-flight
//     work, graph size) with one request per replica per round;
//   - pluggable RoutingPolicy implementations — consistent-hash on the
//     query node (cache affinity), least-loaded, round-robin;
//   - the Proxy handler itself, which routes reads through the policy,
//     sends writes only to the leader, fails over away from draining or
//     lagging replicas, and retries reads once on another replica.
//
// The cache-affinity argument: simrankd's result cache is keyed by
// (epoch, kind, node, params), so routing every query for node u to the
// same replica makes each replica's cache concentrate on its own slice of
// the hot set — aggregate hit rate rises with replica count instead of
// staying flat as every replica caches every node.
package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/simrank/simpush/internal/obs"
	"github.com/simrank/simpush/internal/server"
)

// Replica is one simrankd process as seen by the proxy. All fields
// updated by the prober and the request path are atomic; a Replica is
// safe for concurrent use.
type Replica struct {
	Name string // host:port, the stable display and hash-ring identity
	URL  string // base URL, no trailing slash
	idx  int    // registration order; deterministic tie-breaks

	healthy     atomic.Bool  // /healthz answered 200 with a readable body
	routable    atomic.Bool  // healthy, not draining, lag within bound
	leader      atomic.Bool  // /healthz role == leader
	status      atomic.Value // string: ok | lagging | draining | catching_up | diverged | malformed | unreachable | unknown
	epoch       atomic.Uint64
	n           atomic.Int32 // graph node count (last good probe)
	lag         atomic.Int64
	inFlight    atomic.Int64 // replica-reported engine in-flight (last probe)
	outstanding atomic.Int64 // requests this proxy has open against it
	proxied     atomic.Uint64
}

// Load is the least-loaded signal: the replica's own in-flight engine
// count from the last probe plus the requests this proxy currently has
// open against it (the local term keeps the signal live between probes).
func (r *Replica) Load() int64 { return r.inFlight.Load() + r.outstanding.Load() }

// Routable reports whether reads may be sent here.
func (r *Replica) Routable() bool { return r.routable.Load() }

// Status returns the last probed status string.
func (r *Replica) Status() string {
	if s, ok := r.status.Load().(string); ok {
		return s
	}
	return "unknown"
}

// SetConfig parameterizes a replica Set.
type SetConfig struct {
	// Replicas is the list of simrankd base URLs (scheme optional;
	// "host:port" is normalized to "http://host:port"). Required.
	Replicas []string

	// MaxLag is the replication lag (in epochs) beyond which a follower
	// is failed out of the read set until it drains (default 16).
	MaxLag int64

	// ProbeInterval is the background health-probe cadence (default 1s).
	ProbeInterval time.Duration

	// ProbeTimeout bounds one probe round-trip (default 2s).
	ProbeTimeout time.Duration

	// Logger receives one structured line per replica state transition.
	// nil discards them.
	Logger *slog.Logger
}

// Set is a fixed roster of replicas plus the prober that keeps their
// health state fresh.
type Set struct {
	replicas []*Replica
	cfg      SetConfig
	client   *http.Client
}

// NewSet builds a Set from the configured replica URLs.
func NewSet(cfg SetConfig) (*Set, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica is required")
	}
	if cfg.MaxLag <= 0 {
		cfg.MaxLag = 16
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	s := &Set{cfg: cfg, client: &http.Client{Timeout: cfg.ProbeTimeout}}
	seen := map[string]bool{}
	for i, raw := range cfg.Replicas {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			return nil, fmt.Errorf("cluster: empty replica URL at position %d", i)
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad replica URL %q", raw)
		}
		if seen[base] {
			return nil, fmt.Errorf("cluster: duplicate replica %q", raw)
		}
		seen[base] = true
		rep := &Replica{Name: u.Host, URL: base, idx: i}
		rep.status.Store("unknown")
		s.replicas = append(s.replicas, rep)
	}
	return s, nil
}

// Replicas returns the full roster in registration order.
func (s *Set) Replicas() []*Replica { return s.replicas }

// Routable returns the replicas reads may currently be sent to, in
// registration order.
func (s *Set) Routable() []*Replica {
	out := make([]*Replica, 0, len(s.replicas))
	for _, r := range s.replicas {
		if r.routable.Load() {
			out = append(out, r)
		}
	}
	return out
}

// Leader returns the replica currently claiming the leader role (lowest
// registration index wins if several do), or nil.
func (s *Set) Leader() *Replica {
	for _, r := range s.replicas {
		if r.leader.Load() && r.healthy.Load() {
			return r
		}
	}
	return nil
}

// Start launches the background prober; it stops when ctx is cancelled.
func (s *Set) Start(ctx context.Context) {
	go func() {
		ticker := time.NewTicker(s.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.ProbeOnce(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

// ProbeOnce probes every replica concurrently and waits for the sweep to
// finish. It is called by the background prober and at proxy startup, so
// the first request already sees health state.
func (s *Set) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range s.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			s.probe(ctx, r)
		}(r)
	}
	wg.Wait()
}

// probe refreshes one replica from a single GET /healthz. The status
// code decides health; a 200 body carries the role, epoch, lag,
// in-flight work and graph size routing needs. A 200 whose body does
// not decode fails closed (status malformed, not routable), and any
// other answer keeps the last probed epoch, lag and role.
func (s *Set) probe(ctx context.Context, r *Replica) {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()

	status := "unreachable"
	healthOK := false
	if body, code, err := s.get(pctx, r.URL+"/healthz"); err == nil {
		var h server.Health
		decoded := json.Unmarshal(body, &h) == nil
		switch {
		case code == http.StatusOK && decoded:
			healthOK = true
			status = cmp.Or(h.Status, "ok")
			r.leader.Store(h.Role == server.RoleLeader)
			r.epoch.Store(h.Epoch)
			r.n.Store(h.N)
			r.lag.Store(int64(min(h.Lag, math.MaxInt64)))
			r.inFlight.Store(int64(h.InFlight))
		case code == http.StatusOK:
			status = "malformed"
		case decoded && h.Status != "":
			status = h.Status
		}
	}

	lag := r.lag.Load()
	routable := healthOK && lag <= s.cfg.MaxLag
	if healthOK && lag > s.cfg.MaxLag {
		status = "lagging"
	}
	prev := r.Status()
	wasRoutable := r.routable.Load()
	r.healthy.Store(healthOK)
	r.routable.Store(routable)
	r.status.Store(status)
	if prev != status || wasRoutable != routable {
		s.cfg.Logger.Info("replica state change",
			"replica", r.Name, "from", prev, "to", status, "routable", routable, "lag", lag)
	}
}

// newest returns the highest epoch among routable replicas and the graph
// size the replica at that epoch reports; both are 0 when nothing is
// routable.
func (s *Set) newest() (epoch uint64, n int32) {
	for _, r := range s.Routable() {
		if e := r.epoch.Load(); e >= epoch {
			epoch, n = e, r.n.Load()
		}
	}
	return epoch, n
}

func (s *Set) get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return body, resp.StatusCode, err
}
