package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/graph"
)

// Span names the daemons record (internal/server).
var (
	engineStages  = []string{"walk", "source_push", "gamma", "reverse_push"}
	stageCounters = map[string]string{
		"walk": "core.walk_ms_per_query", "source_push": "core.source_push_ms_per_query",
		"gamma": "core.gamma_ms_per_query", "reverse_push": "core.reverse_push_ms_per_query",
	}
)

// traced produces the per-layer metrics. It runs the workload twice on
// fresh stacks with the same inputs, first with span recording off and
// then on, joins the second run's client spans to the replicas' trace
// records, and replays the generated inputs in-process to time the public
// calls that have no span.
func (b *bench) traced(ctx context.Context) (*report, error) {
	top, _, err := startStack(ctx, b.stackConfig(0))
	if err != nil {
		return nil, err
	}
	plain, err := b.measure(ctx, top, false)
	top.stop()
	if err != nil {
		return nil, err
	}

	ring := b.ringSize()
	top, _, err = startStack(ctx, b.stackConfig(ring))
	if err != nil {
		return nil, err
	}
	defer top.stop()
	win, err := b.measure(ctx, top, true)
	if err != nil {
		return nil, err
	}
	recs, err := top.traceRecords(ctx, ring)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]metric{}}
	if rep.correct, rep.notes, err = b.verify(ctx, top, win); err != nil {
		return nil, err
	}
	top.stop()

	rp, err := b.replay(ctx, win.spans)
	if err != nil {
		return nil, err
	}
	if err := b.layers(rep, plain, win, recs, rp); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, b.predictions(rep)...)
	return rep, nil
}

// ringSize bounds the requests one replica can see in a traced run
// (warm-up included) with room to spare, so a full ring means it wrapped.
func (b *bench) ringSize() int {
	secs := b.w.warmup.Seconds() + b.window.Seconds()
	if b.w.clients > 0 {
		// A closed loop of c clients cannot beat 2ms per read.
		return int(secs*500)*b.w.clients + 1024
	}
	return int(secs*(b.w.readRate+b.w.writeRate)*1.5) + 2*b.w.hotSet*len(b.w.reads) + 1024
}

// traceRecords fetches /debug/queries from every replica. A replica whose
// ring is full may have dropped records, and then the run must not report.
func (t *topology) traceRecords(ctx context.Context, ring int) ([]traceRecord, error) {
	var all []traceRecord
	for _, d := range t.replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/debug/queries", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("fetching traces from %s: %w", d.name, err)
		}
		var body struct {
			Enabled bool          `json:"enabled"`
			Count   int           `json:"count"`
			Queries []traceRecord `json:"queries"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding traces from %s: %w", d.name, err)
		}
		if !body.Enabled {
			return nil, fmt.Errorf("%s records no traces", d.name)
		}
		if body.Count >= ring {
			return nil, fmt.Errorf("%s trace ring wrapped (%d records, capacity %d): refusing to report", d.name, body.Count, ring)
		}
		all = append(all, body.Queries...)
	}
	return all, nil
}

// replayStats are the in-process timings and work counts of the replay.
type replayStats struct {
	walks, levels, sourceGraph, attention, alloc, topkMs []float64
	trivial                                              int
	rebuildMs, bfsMs, affected                           []float64
}

// Replay budgets: enough queries for stable means, bounded so the run
// stays well inside its time limit.
const (
	replayQueries = 120
	replayWrites  = 16
	replayBudget  = 5 * time.Second
)

// replay re-runs the window's distinct reads through simpush.Client and
// simpush.TopK, and its writes through DynamicGraph.ApplyEdges (no commit
// hook) and graph.AffectedNodes at the depth and budget simrankd uses.
func (b *bench) replay(ctx context.Context, spans []clientSpan) (*replayStats, error) {
	opts := engineOptions()
	client, err := simpush.NewClient(b.g, opts)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	rp := &replayStats{}
	seen := map[[2]uint64]bool{}
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for _, s := range spans {
		r := s.req
		key := [2]uint64{uint64(r.node), r.seed}
		if r.isWrite() || seen[key] {
			continue
		}
		if len(seen) == replayQueries || time.Since(start) > replayBudget {
			break
		}
		seen[key] = true
		runtime.ReadMemStats(&ms0)
		res, err := client.SingleSource(ctx, r.node, simpush.WithSeed(r.seed))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_ = simpush.TopK(res.Scores, topK, r.node)
		rp.topkMs = append(rp.topkMs, ms(time.Since(t0)))
		rp.walks = append(rp.walks, float64(res.Walks))
		rp.levels = append(rp.levels, float64(res.L))
		rp.sourceGraph = append(rp.sourceGraph, float64(res.SourceGraphSize))
		rp.attention = append(rp.attention, float64(len(res.Attention)))
		rp.alloc = append(rp.alloc, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		if res.L == 0 {
			rp.trivial++
		}
	}

	var writes []request
	for _, s := range spans {
		if s.req.isWrite() && len(writes) < replayWrites {
			writes = append(writes, s.req)
		}
	}
	if len(writes) == 0 {
		return rp, nil
	}
	dyn := simpush.DynamicFromGraph(b.g)
	old, _, err := dyn.ApplyEdges(nil, nil)
	if err != nil {
		return nil, err
	}
	depth := opts.MaxLevelBound()
	budget := max(int(b.g.N())/2, 1024)
	start = time.Now()
	for _, w := range writes {
		if time.Since(start) > replayBudget {
			break
		}
		e := [][2]int32{{w.node, w.v}}
		var adds, removes [][2]int32
		if w.kind == kindAdd {
			adds = e
		} else {
			removes = e
		}
		t0 := time.Now()
		cur, _, err := dyn.ApplyEdges(adds, removes)
		if err != nil {
			return nil, fmt.Errorf("replaying %s (%d, %d): %w", w.kind, w.node, w.v, err)
		}
		rp.rebuildMs = append(rp.rebuildMs, ms(time.Since(t0)))
		t0 = time.Now()
		aff, ok := graph.AffectedNodes(old, cur, []int32{w.node, w.v}, depth, budget)
		rp.bfsMs = append(rp.bfsMs, ms(time.Since(t0)))
		if ok {
			rp.affected = append(rp.affected, float64(len(aff)))
		}
		old = cur
	}
	return rp, nil
}

// layers turns the traced window, its scrapes and the replay into the
// per-layer metrics.
func (b *bench) layers(rep *report, plain, win *window, recs []traceRecord, rp *replayStats) error {
	set := func(name string, v float64, unit string, n int) { rep.metrics[name] = metric{v, unit, n} }
	nRep := len(plain.spans) // reported counts are those of the untraced window
	rep.attempted = nRep
	var writeLat []float64
	for _, s := range plain.spans {
		if !s.ok() {
			rep.failed++
		} else if s.req.isWrite() {
			writeLat = append(writeLat, s.latency())
		}
	}
	for _, p := range []float64{50, 90, 99} {
		set(fmt.Sprintf("query_p%g_ms", p), plain.readPercentile(p), "ms", nRep-len(writeLat)-rep.failed)
	}
	w50, _ := percentile(writeLat, 50)
	w90, _ := percentile(writeLat, 90)
	set("write_p50_ms", w50, "ms", len(writeLat))
	set("write_p90_ms", w90, "ms", len(writeLat))
	set("error_pct", 100*float64(rep.failed)/float64(max(nRep, 1)), "%", nRep)
	var lag []float64
	for _, l := range plain.lag {
		lag = append(lag, ms(l))
	}
	lag99, _ := percentile(lag, 99)
	set("workload.lag_p99_ms", lag99, "ms", len(lag))

	// Tracing overhead: the same inputs with and without span recording.
	p50 := func(w *window) (float64, int) {
		var xs []float64
		for _, s := range w.spans {
			if s.ok() && !s.req.isWrite() {
				xs = append(xs, s.latency())
			}
		}
		v, _ := percentile(xs, 50)
		return v, len(xs)
	}
	untraced, n := p50(plain)
	tracedP50, _ := p50(win)
	set("tracing.overhead_p50_pct", 100*(tracedP50-untraced)/untraced, "%", n)
	cpuPer := func(w *window) float64 { return ms(w.cpu) / float64(max(len(w.spans), 1)) }
	set("tracing.overhead_cpu_pct", 100*(cpuPer(win)-cpuPer(plain))/cpuPer(plain), "%", len(win.spans))

	// Join the timed requests to the replica records.
	spans := map[string]clientSpan{}
	for i, s := range win.spans {
		spans[fmt.Sprintf("t-%d", i)] = s
	}
	var timed []traceRecord
	for _, r := range recs {
		if !strings.HasPrefix(r.RequestID, "warm-") && !strings.HasPrefix(r.RequestID, "fill-") {
			timed = append(timed, r)
		}
	}
	pairs, unmatched := joinByID(spans, timed)
	set("trace.unmatched_records", float64(unmatched), "count", len(timed))
	set("trace.joined_share", float64(len(pairs))/float64(max(len(spans), 1)), "ratio", len(spans))

	var hops, recordMs, serverSelf, cacheSelf, snapshot, admission, unattributed, respBytes []float64
	for _, p := range pairs {
		if p.span.req.isWrite() || !p.span.ok() {
			continue
		}
		r := p.rec
		snap := r.spanTotal("snapshot")
		adm := r.spanTotal("admission_wait")
		stages := r.spanTotal(engineStages...)
		srv := selfTime(interval{0, r.DurationMs}, r.spans("snapshot", "admission_wait", "cache", "engine_batch"))
		csh := 0.0
		for _, c := range r.spans("cache") {
			csh += selfTime(c, r.spans(append([]string{"admission_wait"}, engineStages...)...))
		}
		hop := 0.0
		if b.w.cluster {
			hop = p.span.service() - r.DurationMs
			hops = append(hops, hop)
		}
		recordMs = append(recordMs, r.DurationMs)
		serverSelf = append(serverSelf, srv)
		cacheSelf = append(cacheSelf, csh)
		snapshot = append(snapshot, snap)
		admission = append(admission, adm)
		respBytes = append(respBytes, float64(p.span.bytes))
		unattributed = append(unattributed, p.span.service()-hop-srv-snap-adm-csh-stages)
	}
	reads := len(recordMs)
	hop50, _ := percentile(hops, 50)
	rec50, _ := percentile(recordMs, 50)
	set("cluster.hop_ms_p50", hop50, "ms", len(hops))
	set("server.request_ms_p50", rec50, "ms", reads)
	set("server.self_ms_per_req", mean(serverSelf), "ms", reads)
	set("server.resp_bytes_per_req", mean(respBytes), "B", reads)
	set("server.admission_wait_ms_per_req", mean(admission), "ms", reads)
	set("cache.self_ms_per_req", mean(cacheSelf), "ms", reads)
	set("client.snapshot_ms_per_req", mean(snapshot), "ms", reads)
	set("unattributed_ms_per_req", mean(unattributed), "ms", reads)

	// Counter deltas over the traced window.
	var derr error
	replicas := func(name string, match map[string]string) float64 {
		total := 0.0
		for i := 0; i < win.replicas; i++ {
			d, err := counterDelta(win.before[i], win.after[i], name, match)
			if err != nil && derr == nil {
				derr = err
			}
			total += d
		}
		return total
	}
	leader := func(name string) float64 {
		d, err := counterDelta(win.before[0], win.after[0], name, nil)
		if err != nil && derr == nil {
			derr = err
		}
		return d
	}
	timedReads := 0
	for _, s := range win.spans {
		if !s.req.isWrite() {
			timedReads++
		}
	}
	hits := replicas("simrankd_cache_hits_total", nil)
	misses := replicas("simrankd_cache_misses_total", nil)
	coalesced := replicas("simrankd_cache_coalesced_total", nil)
	lookups := hits + misses + coalesced
	set("cache.hit_rate", hits/max(lookups, 1), "ratio", int(lookups))
	set("cache.coalesced", coalesced, "count", int(lookups))
	set("cache.evictions", replicas("simrankd_cache_evictions_total", nil), "count", int(lookups))
	commitsAll := replicas("simrankd_delta_commits_total", nil)
	set("cache.carried_per_commit", replicas("simrankd_cache_carried_total", nil)/max(commitsAll, 1), "count", int(commitsAll))
	set("cache.carry_dropped", replicas("simrankd_cache_carry_dropped_total", nil), "count", int(commitsAll))
	set("server.rejected_429", replicas("simrankd_admission_rejected_total", nil), "count", len(win.spans))

	runs := replicas("simrankd_client_queries_total", nil)
	set("client.engine_runs_per_req", runs/float64(max(timedReads, 1)), "ratio", timedReads)
	for _, st := range engineStages {
		secs := replicas("simrankd_engine_stage_seconds_total", map[string]string{"stage": st})
		v := 0.0
		if runs > 0 {
			v = 1000 * secs / runs
		}
		set(stageCounters[st], v, "ms", int(runs))
	}

	commits := leader("simrankd_delta_commits_total")
	totals := leader("simrankd_delta_total_fallbacks_total")
	set("graph.commits", commits, "count", int(commits))
	set("graph.delta_total_share", totals/max(commits, 1), "ratio", int(commits))

	retries, share, proxied := 0.0, 0.0, 0.0
	if b.w.cluster {
		px := len(win.before) - 1
		d, err := counterDelta(win.before[px], win.after[px], "simproxy_retries_total", nil)
		if err != nil {
			return err
		}
		retries = d
		per := map[string]float64{}
		for _, s := range win.after[px] {
			if s.name == "simproxy_replica_requests_proxied_total" {
				per[s.labels["replica"]] += s.value
			}
		}
		for _, s := range win.before[px] {
			if s.name == "simproxy_replica_requests_proxied_total" {
				per[s.labels["replica"]] -= s.value
			}
		}
		for _, v := range per {
			proxied += v
		}
		for _, v := range per {
			share = max(share, v/max(proxied, 1))
		}
	}
	set("cluster.retries", retries, "count", len(win.spans))
	set("cluster.replica_share_max", share, "ratio", int(proxied))
	set("replication.lag_max_epochs", float64(win.maxLag), "epochs", int(commits))
	if derr != nil {
		return derr
	}

	// Replay.
	q := len(rp.walks)
	set("core.walks_per_query", mean(rp.walks), "count", q)
	set("core.level_mean", mean(rp.levels), "count", q)
	set("core.source_graph_size_mean", mean(rp.sourceGraph), "count", q)
	set("core.attention_size_mean", mean(rp.attention), "count", q)
	set("core.trivial_share", float64(rp.trivial)/float64(max(q, 1)), "ratio", q)
	set("core.alloc_bytes_per_query", mean(rp.alloc), "B", q)
	set("eval.topk_ms_per_query", mean(rp.topkMs), "ms", q)
	reb50, _ := percentile(rp.rebuildMs, 50)
	bfs50, _ := percentile(rp.bfsMs, 50)
	set("graph.rebuild_ms_p50", reb50, "ms", len(rp.rebuildMs))
	set("graph.delta_bfs_ms_p50", bfs50, "ms", len(rp.bfsMs))
	set("graph.delta_affected_mean", mean(rp.affected), "count", len(rp.affected))
	return nil
}

// predictions checks what the workloads were built to show and returns a
// note for each prediction the traced run contradicts.
func (b *bench) predictions(rep *report) []string {
	v := func(name string) float64 { return rep.metrics[name].value }
	var notes []string
	switch b.w.name {
	case "cold-topk":
		if v("cache.hit_rate") != 0 || v("cluster.hop_ms_p50") != 0 {
			notes = append(notes, "prediction failed: cold-topk should see no cache hit and no proxy hop")
		}
	case "hot-feed":
		if v("client.engine_runs_per_req") != 0 {
			notes = append(notes, "prediction failed: hot-feed should run no engine query after warm-up")
		}
	}
	if (v("graph.commits") > 0) != (b.w.writeRate > 0) {
		notes = append(notes, "prediction failed: only churn-mixed should commit graph epochs")
	}
	return notes
}
