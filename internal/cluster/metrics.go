package cluster

import (
	"net/http"
	"time"

	"github.com/simrank/simpush/internal/obs"
)

// GET /metricsz renders the proxy's own counters plus each replica's
// last probed state (under a "replica" label) in Prometheus text format,
// straight from the atomics. Replica-side counters (cache, engine) live
// on each replica's own /metricsz.
func (p *Proxy) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeProxyError(w, http.StatusMethodNotAllowed, "method_not_allowed", "method not allowed")
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	mw := obs.NewMetricsWriter(w)

	mw.Gauge("simproxy_uptime_seconds", "Seconds since the proxy started.")
	mw.Sample("simproxy_uptime_seconds", nil, time.Since(p.start).Seconds())
	mw.Counter("simproxy_requests_total", "Requests accepted by the proxy.")
	mw.Sample("simproxy_requests_total", nil, float64(p.requests.Load()))
	mw.Counter("simproxy_writes_total", "Mutations forwarded to the leader.")
	mw.Sample("simproxy_writes_total", nil, float64(p.writes.Load()))
	mw.Counter("simproxy_retries_total", "Reads retried on a second replica.")
	mw.Sample("simproxy_retries_total", nil, float64(p.retries.Load()))
	mw.Counter("simproxy_failovers_total", "Reads answered by the retry replica.")
	mw.Sample("simproxy_failovers_total", nil, float64(p.failovers.Load()))
	mw.Counter("simproxy_no_replica_total", "Requests rejected with 503 (no routable replica or leader).")
	mw.Sample("simproxy_no_replica_total", nil, float64(p.noReplica.Load()))
	mw.Counter("simproxy_bad_gateway_total", "Requests answered 502 after transport failures.")
	mw.Sample("simproxy_bad_gateway_total", nil, float64(p.badGW.Load()))
	mw.Gauge("simproxy_routable_replicas", "Replicas reads may currently be routed to.")
	mw.Sample("simproxy_routable_replicas", nil, float64(len(p.set.Routable())))
	mw.Gauge("simproxy_replicas", "Configured roster size.")
	mw.Sample("simproxy_replicas", nil, float64(len(p.set.Replicas())))
	epoch, _ := p.set.newest()
	mw.Gauge("simproxy_epoch", "Highest epoch among routable replicas.")
	mw.Sample("simproxy_epoch", nil, float64(epoch))

	perReplica := func(name string, v func(*Replica) float64) {
		for _, rep := range p.set.Replicas() {
			mw.Sample(name, obs.L("replica", rep.Name), v(rep))
		}
	}
	mw.Gauge("simproxy_replica_up", "1 when the replica's /healthz answers 200 with a readable body.")
	perReplica("simproxy_replica_up", func(r *Replica) float64 { return b2f(r.healthy.Load()) })
	mw.Gauge("simproxy_replica_routable", "1 when reads may be routed to the replica.")
	perReplica("simproxy_replica_routable", func(r *Replica) float64 { return b2f(r.routable.Load()) })
	mw.Gauge("simproxy_replica_leader", "1 on the replica claiming the leader role.")
	perReplica("simproxy_replica_leader", func(r *Replica) float64 { return b2f(r.leader.Load()) })
	mw.Gauge("simproxy_replica_epoch", "Last probed applied epoch of the replica.")
	perReplica("simproxy_replica_epoch", func(r *Replica) float64 { return float64(r.epoch.Load()) })
	mw.Gauge("simproxy_replica_lag", "Replication lag (epochs) behind the leader.")
	perReplica("simproxy_replica_lag", func(r *Replica) float64 { return float64(r.lag.Load()) })
	mw.Gauge("simproxy_replica_in_flight", "Open requests against the replica (probe + local).")
	perReplica("simproxy_replica_in_flight", func(r *Replica) float64 { return float64(r.Load()) })
	mw.Counter("simproxy_replica_requests_proxied_total", "Requests this proxy has sent to the replica.")
	perReplica("simproxy_replica_requests_proxied_total", func(r *Replica) float64 { return float64(r.proxied.Load()) })

	if err := mw.Err(); err != nil {
		p.logger.Warn("writing /metricsz", "error", err)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
