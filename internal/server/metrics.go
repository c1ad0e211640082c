package server

import (
	"net/http"
	"time"

	"github.com/simrank/simpush/internal/obs"
)

// GET /metricsz renders every serving counter in Prometheus text
// exposition format (version 0.0.4) under the simrankd_* namespace. It
// is the daemon's only counter surface, read straight from the
// always-on atomics, so scraping costs no locks on the request path.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	mw := obs.NewMetricsWriter(w)

	mw.Gauge("simrankd_uptime_seconds", "Seconds since the server started.")
	mw.Sample("simrankd_uptime_seconds", nil, time.Since(s.start).Seconds())
	mw.Gauge("simrankd_epoch", "Highest committed graph epoch observed by a request.")
	mw.Sample("simrankd_epoch", nil, float64(s.lastEpoch.Load()))
	var n, m float64
	if g := s.client.Graph(); g != nil {
		n, m = float64(g.N()), float64(g.M())
	}
	mw.Gauge("simrankd_graph_nodes", "Node count of the current graph.")
	mw.Sample("simrankd_graph_nodes", nil, n)
	mw.Gauge("simrankd_graph_edges", "Edge count of the current graph.")
	mw.Sample("simrankd_graph_edges", nil, m)
	mw.Gauge("simrankd_draining", "1 while Drain has flipped /healthz to 503.")
	mw.Sample("simrankd_draining", nil, b2f(s.draining.Load()))

	mw.Counter("simrankd_requests_total", "HTTP requests by endpoint.")
	for i, name := range kindNames {
		mw.Sample("simrankd_requests_total", obs.L("endpoint", name), float64(s.byKind[i].Load()))
	}
	mw.Counter("simrankd_error_responses_total", "HTTP responses with status >= 400.")
	mw.Sample("simrankd_error_responses_total", nil, float64(s.errors.Load()))

	cs := s.cache.Stats()
	mw.Counter("simrankd_cache_hits_total", "Result-cache hits.")
	mw.Sample("simrankd_cache_hits_total", nil, float64(cs.Hits))
	mw.Counter("simrankd_cache_misses_total", "Result-cache misses (engine computations started).")
	mw.Sample("simrankd_cache_misses_total", nil, float64(cs.Misses))
	mw.Counter("simrankd_cache_coalesced_total", "Requests that joined an in-flight identical computation.")
	mw.Sample("simrankd_cache_coalesced_total", nil, float64(cs.Coalesced))
	mw.Counter("simrankd_cache_evictions_total", "Result-cache evictions.")
	mw.Sample("simrankd_cache_evictions_total", nil, float64(cs.Evictions))
	mw.Gauge("simrankd_cache_entries", "Live result-cache entries.")
	mw.Sample("simrankd_cache_entries", nil, float64(cs.Entries))
	mw.Counter("simrankd_cache_carried_total", "Cache entries re-keyed to a new epoch by carry-forward.")
	mw.Sample("simrankd_cache_carried_total", nil, float64(cs.Carried))
	mw.Counter("simrankd_cache_carry_dropped_total", "Carry-forward candidates dropped (affected, raced, or Total fallback).")
	mw.Sample("simrankd_cache_carry_dropped_total", nil, float64(cs.CarryDropped))

	if s.dyn != nil && !s.cfg.DisableCarryForward {
		mw.Gauge("simrankd_delta_affected_nodes", "Affected-set size of the most recent epoch delta.")
		mw.Sample("simrankd_delta_affected_nodes", nil, float64(s.deltaAffectedLast.Load()))
		mw.Counter("simrankd_delta_commits_total", "Committed epoch advances seen by the carry-forward hook.")
		mw.Sample("simrankd_delta_commits_total", nil, float64(s.deltas.Load()))
		mw.Counter("simrankd_delta_total_fallbacks_total", "Epoch deltas that degraded to a whole-cache drop.")
		mw.Sample("simrankd_delta_total_fallbacks_total", nil, float64(s.deltaTotals.Load()))
	}
	var discarded uint64
	if s.dyn != nil {
		discarded = s.dyn.DiscardedDeletions()
	}
	mw.Counter("simrankd_graph_discarded_deletions_total", "Removals of never-existing edges discarded by the dynamic source.")
	mw.Sample("simrankd_graph_discarded_deletions_total", nil, float64(discarded))

	mw.Gauge("simrankd_admission_in_flight", "Engine computations currently holding a slot.")
	mw.Sample("simrankd_admission_in_flight", nil, float64(s.adm.inFlight()))
	mw.Gauge("simrankd_admission_queue_depth", "Requests waiting for an engine slot.")
	mw.Sample("simrankd_admission_queue_depth", nil, float64(s.adm.queueDepth()))
	mw.Counter("simrankd_admission_rejected_total", "Requests shed with 429 (queue full).")
	mw.Sample("simrankd_admission_rejected_total", nil, float64(s.adm.rejected.Load()))
	mw.Counter("simrankd_admission_waits_total", "Slot acquisitions that had to queue.")
	mw.Sample("simrankd_admission_waits_total", nil, float64(s.adm.waits.Load()))
	mw.Counter("simrankd_admission_wait_seconds_total", "Cumulative time spent queued for a slot.")
	mw.Sample("simrankd_admission_wait_seconds_total", nil, float64(s.adm.waitNanos.Load())/1e9)
	mw.Gauge("simrankd_admission_retry_after_seconds", "Retry-After a 429 issued now would carry.")
	mw.Sample("simrankd_admission_retry_after_seconds", nil,
		float64(s.adm.estimateRetryAfter(s.cfg.RetryAfter, maxRetryAfterSec)))

	qs := s.client.Stats()
	mw.Counter("simrankd_client_queries_total", "Engine queries run by the embedded client.")
	mw.Sample("simrankd_client_queries_total", nil, float64(qs.Queries))
	mw.Counter("simrankd_client_errors_total", "Engine queries that returned an error.")
	mw.Sample("simrankd_client_errors_total", nil, float64(qs.Errors))

	mw.Counter("simrankd_engine_stage_seconds_total", "Cumulative engine wall time by stage.")
	for i, name := range stageNames {
		mw.Sample("simrankd_engine_stage_seconds_total", obs.L("stage", name),
			float64(s.stageNanos[i].Load())/1e9)
	}

	if s.rep.role == RoleLeader || s.rep.role == RoleFollower {
		mw.Gauge("simrankd_replication_lag", "Leader epoch minus applied epoch (followers; 0 on the leader).")
		mw.Sample("simrankd_replication_lag", nil, float64(s.lag()))
		mw.Gauge("simrankd_replication_synced", "1 once the replica has replayed to its subscribe-time target.")
		mw.Sample("simrankd_replication_synced", nil, b2f(s.rep.role == RoleLeader || s.rep.synced.Load()))
		mw.Gauge("simrankd_replication_diverged", "1 if the replica hit an unrecoverable replication error.")
		mw.Sample("simrankd_replication_diverged", nil, b2f(s.rep.diverged.Load()))
	}

	// One histogram per (endpoint, serving path) that served anything;
	// the writer converts the millisecond bounds to seconds and folds the
	// overflow bucket into +Inf.
	mw.HistogramType("simrankd_request_duration_seconds", "Request duration by endpoint and serving path.")
	bounds := LatencyBucketsMs()
	pathNames := [pathCount]string{pathEngine: "engine", pathCache: "cache"}
	for kind := range s.lat {
		for path := range s.lat[kind] {
			counts, sumMs := s.lat[kind][path].load()
			if counts == nil {
				continue
			}
			labels := obs.L("endpoint", kindNames[kind]).L("path", pathNames[path])
			mw.Histogram("simrankd_request_duration_seconds", labels, bounds, counts, sumMs)
		}
	}

	if err := mw.Err(); err != nil {
		s.logger.Warn("writing /metricsz", "error", err)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// GET /debug/queries returns the most recent completed query traces
// (newest first) as JSON. Empty unless Config.TraceRing is set.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet)
		return
	}
	recs := s.ring.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": s.ring.Enabled(),
		"count":   len(recs),
		"queries": recs,
	})
}
