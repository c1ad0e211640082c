package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/simrank/simpush/internal/obs"
	"github.com/simrank/simpush/internal/rnd"
)

// RunOptions parameterizes one workload run against a live target.
type RunOptions struct {
	// Target is the base URL of a simrankd or simproxy.
	Target string

	// Timeout is the per-request client timeout (default 30s).
	Timeout time.Duration

	// MaxOutstanding bounds concurrently outstanding open-loop requests
	// (default 256). When the bound is hit the scheduler falls behind
	// instead of spawning unboundedly; the resulting lateness is charged
	// to request latency (measured from the scheduled send time), so
	// overload is visible in the SLO numbers rather than hidden.
	MaxOutstanding int

	// HTTPClient overrides the transport (tests).
	HTTPClient *http.Client
}

// targetState is what the runner reads from the target around a run:
// the graph size and epoch from /healthz (simrankd and simproxy both
// report them) and, from a simrankd, its counters from /metricsz.
type targetState struct {
	n        int32
	epoch    uint64
	counters *counters // nil when /metricsz carries no simrankd counters (a simproxy)
}

// counters is the slice of a simrankd /metricsz scrape the report's
// counter blocks are computed from.
type counters struct {
	hits, misses, coalesced float64
	queries, rejected       float64
	waits, waitSeconds      float64
	stages                  map[string]float64 // engine seconds by stage
}

func readTarget(client *http.Client, base string) (targetState, error) {
	var st targetState
	var health struct {
		N     int32  `json:"n"`
		Epoch uint64 `json:"epoch"`
	}
	body, err := getOK(client, base+"/healthz")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &health); err != nil {
		return st, fmt.Errorf("decoding /healthz: %w", err)
	}
	st.n, st.epoch = health.N, health.Epoch

	body, err = getOK(client, base+"/metricsz")
	if err != nil {
		return st, err
	}
	samples, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("parsing /metricsz: %w", err)
	}
	queries, ok := obs.FindSample(samples, "simrankd_client_queries_total", nil)
	if !ok {
		return st, nil
	}
	c := &counters{queries: queries, stages: make(map[string]float64)}
	for _, s := range samples {
		if s.Name == "simrankd_engine_stage_seconds_total" && s.Labels["stage"] != "" {
			c.stages[s.Labels["stage"]] = s.Value
		}
	}
	for name, v := range map[string]*float64{
		"simrankd_cache_hits_total":             &c.hits,
		"simrankd_cache_misses_total":           &c.misses,
		"simrankd_cache_coalesced_total":        &c.coalesced,
		"simrankd_admission_rejected_total":     &c.rejected,
		"simrankd_admission_waits_total":        &c.waits,
		"simrankd_admission_wait_seconds_total": &c.waitSeconds,
	} {
		*v, _ = obs.FindSample(samples, name, nil)
	}
	st.counters = c
	return st, nil
}

// getOK fetches url and returns its body, failing on any status but 200.
func getOK(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// Run executes the spec against the target and scores the result. The
// spec's traffic is fully determined by (spec, seed); the measured
// latencies and statuses are whatever the live server did with it.
func Run(ctx context.Context, spec *Spec, opt RunOptions) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	base := strings.TrimRight(opt.Target, "/")
	if base == "" {
		return nil, fmt.Errorf("workload: RunOptions.Target is required")
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.MaxOutstanding <= 0 {
		opt.MaxOutstanding = 256
	}
	client := opt.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: opt.Timeout}
	}

	before, err := readTarget(client, base)
	if err != nil {
		return nil, fmt.Errorf("workload: reaching target: %w", err)
	}
	if before.n < 1 {
		return nil, fmt.Errorf("workload: target reports an empty graph (n=%d)", before.n)
	}

	closed, err := spec.closed()
	if err != nil {
		return nil, err
	}

	rec := &recorder{}
	start := time.Now()
	if closed {
		err = runClosed(ctx, spec, before.n, base, client, rec)
	} else {
		err = runOpen(ctx, spec, before.n, base, client, opt.MaxOutstanding, rec)
	}
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}

	after, err := readTarget(client, base)
	if err != nil {
		return nil, fmt.Errorf("workload: reading final counters: %w", err)
	}
	return score(spec, base, elapsed, rec.samples, before, after), nil
}

// recorder collects samples from concurrent senders.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// send issues one request and records the observation. Latency is
// measured from t0 — the *scheduled* send time for open-loop traffic —
// so local queueing delay under overload counts against the SLO instead
// of being silently omitted.
func send(client *http.Client, base string, req Request, t0 time.Time, rec *recorder) {
	httpReq, err := buildHTTP(base, req)
	s := sample{class: req.Class, op: req.Op}
	if err == nil {
		var resp *http.Response
		resp, err = client.Do(httpReq)
		if err == nil {
			s.status = resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if err != nil {
		s.transport = true
	}
	s.latency = time.Since(t0)
	rec.add(s)
}

// buildHTTP maps a trace Request onto the simrankd HTTP surface.
func buildHTTP(base string, req Request) (*http.Request, error) {
	v := url.Values{}
	if req.Seed != 0 {
		v.Set("seed", fmt.Sprint(req.Seed))
	}
	if req.Eps > 0 {
		v.Set("eps", fmt.Sprint(req.Eps))
	}
	switch req.Op {
	case OpSingleSource:
		v.Set("node", fmt.Sprint(req.Node))
		return http.NewRequest(http.MethodGet, base+"/v1/single-source?"+v.Encode(), nil)
	case OpTopK:
		v.Set("node", fmt.Sprint(req.Node))
		v.Set("k", fmt.Sprint(req.K))
		return http.NewRequest(http.MethodGet, base+"/v1/topk?"+v.Encode(), nil)
	case OpPair:
		v.Set("u", fmt.Sprint(req.Node))
		v.Set("v", fmt.Sprint(req.Node2))
		return http.NewRequest(http.MethodGet, base+"/v1/pair?"+v.Encode(), nil)
	case OpBatch:
		body := map[string]any{"nodes": req.Nodes}
		if req.K > 0 {
			body["k"] = req.K
		}
		if req.Seed != 0 {
			body["seed"] = req.Seed
		}
		if req.Eps > 0 {
			body["eps"] = req.Eps
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		return http.NewRequest(http.MethodPost, base+"/v1/batch", bytes.NewReader(raw))
	case OpAddEdge, OpRemoveEdge:
		raw, err := json.Marshal(map[string]int32{"from": req.Node, "to": req.Node2})
		if err != nil {
			return nil, err
		}
		method := http.MethodPost
		if req.Op == OpRemoveEdge {
			method = http.MethodDelete
		}
		return http.NewRequest(method, base+"/v1/edges", bytes.NewReader(raw))
	}
	return nil, fmt.Errorf("workload: unknown op %q", req.Op)
}

// runOpen replays the pregenerated trace on its schedule. Queries fan
// out concurrently (bounded by maxOutstanding); mutations flow through
// one serialized lane in trace order, so a remove-edge can never race
// ahead of the add-edge it refers to.
func runOpen(ctx context.Context, spec *Spec, n int32, base string, client *http.Client, maxOutstanding int, rec *recorder) error {
	trace, err := spec.Trace(n)
	if err != nil {
		return err
	}

	type timed struct {
		req Request
		t0  time.Time
	}
	var wg sync.WaitGroup
	mutCh := make(chan timed, 1024)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for t := range mutCh {
			send(client, base, t.req, t.t0, rec)
		}
	}()

	sem := make(chan struct{}, maxOutstanding)
	start := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
dispatch:
	for _, req := range trace {
		t0 := start.Add(req.At)
		if wait := time.Until(t0); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		if ctx.Err() != nil {
			break dispatch
		}
		if req.Op.isMutation() {
			mutCh <- timed{req: req, t0: t0}
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(req Request, t0 time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			send(client, base, req, t0, rec)
		}(req, t0)
	}
	close(mutCh)
	wg.Wait()
	return nil
}

// runClosed drives closed-loop classes: each worker sends its next
// request the moment the previous response returns, for the spec's
// duration. Worker w of class c samples from a substream deterministic
// in (seed, c, w), so the per-worker request sequence is replayable even
// though issue times depend on the server.
func runClosed(ctx context.Context, spec *Spec, n int32, base string, client *http.Client, rec *recorder) error {
	runCtx, cancel := context.WithTimeout(ctx, time.Duration(spec.Duration))
	defer cancel()

	root := rnd.New(spec.Seed)
	var wg sync.WaitGroup
	for i := range spec.Classes {
		cls := &spec.Classes[i]
		classSeed := root.Uint64()
		workerRoot := rnd.New(classSeed)
		for w := 0; w < cls.Arrival.Concurrency; w++ {
			workerSeed := workerRoot.Uint64()
			wg.Add(1)
			go func(cls *ClassSpec, workerSeed uint64) {
				defer wg.Done()
				src := rnd.New(workerSeed)
				streams := classStreams{
					arrival: src.Split(),
					node:    src.Split(),
					mix:     src.Split(),
					seed:    src.Split(),
				}
				sampler := newClassSampler(cls, streams, n)
				for runCtx.Err() == nil {
					req := sampler.next(0)
					send(client, base, req, time.Now(), rec)
				}
			}(cls, workerSeed)
		}
	}
	wg.Wait()
	return nil
}
