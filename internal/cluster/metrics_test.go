package cluster

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/simrank/simpush/internal/server"
)

// simrankdFamilies is every metric family a simrankd over a dynamic
// source emits, with its type. Leaders and followers add the three
// simrankd_replication_* gauges. perfbench and simload read a subset of
// these names, so a family may only be renamed or dropped together with
// its readers.
var simrankdFamilies = []string{
	"simrankd_admission_in_flight gauge",
	"simrankd_admission_queue_depth gauge",
	"simrankd_admission_rejected_total counter",
	"simrankd_admission_retry_after_seconds gauge",
	"simrankd_admission_wait_seconds_total counter",
	"simrankd_admission_waits_total counter",
	"simrankd_cache_carried_total counter",
	"simrankd_cache_carry_dropped_total counter",
	"simrankd_cache_coalesced_total counter",
	"simrankd_cache_entries gauge",
	"simrankd_cache_evictions_total counter",
	"simrankd_cache_hits_total counter",
	"simrankd_cache_misses_total counter",
	"simrankd_client_errors_total counter",
	"simrankd_client_queries_total counter",
	"simrankd_delta_affected_nodes gauge",
	"simrankd_delta_commits_total counter",
	"simrankd_delta_total_fallbacks_total counter",
	"simrankd_draining gauge",
	"simrankd_engine_stage_seconds_total counter",
	"simrankd_epoch gauge",
	"simrankd_error_responses_total counter",
	"simrankd_graph_discarded_deletions_total counter",
	"simrankd_graph_edges gauge",
	"simrankd_graph_nodes gauge",
	"simrankd_request_duration_seconds histogram",
	"simrankd_requests_total counter",
	"simrankd_uptime_seconds gauge",
}

var replicationFamilies = []string{
	"simrankd_replication_diverged gauge",
	"simrankd_replication_lag gauge",
	"simrankd_replication_synced gauge",
}

// simproxyFamilies is every metric family simproxy emits. Replica-side
// cache and engine counters are not among them: scrape the replicas.
var simproxyFamilies = []string{
	"simproxy_bad_gateway_total counter",
	"simproxy_epoch gauge",
	"simproxy_failovers_total counter",
	"simproxy_no_replica_total counter",
	"simproxy_replica_epoch gauge",
	"simproxy_replica_in_flight gauge",
	"simproxy_replica_lag gauge",
	"simproxy_replica_leader gauge",
	"simproxy_replica_requests_proxied_total counter",
	"simproxy_replica_routable gauge",
	"simproxy_replica_up gauge",
	"simproxy_replicas gauge",
	"simproxy_requests_total counter",
	"simproxy_retries_total counter",
	"simproxy_routable_replicas gauge",
	"simproxy_uptime_seconds gauge",
	"simproxy_writes_total counter",
}

// families returns the sorted "name type" pairs of every # TYPE line
// base's /metricsz emits.
func families(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out = append(out, f[2]+" "+f[3])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// TestMetricszFamilySet pins the family set of both daemons after one
// query and one write: standalone, leader and follower simrankd over a
// dynamic source, and simproxy in front of the replicated trio.
func TestMetricszFamilySet(t *testing.T) {
	standalone := httptest.NewServer(newReplicaServer(t, server.RoleStandalone, "").Handler())
	t.Cleanup(standalone.Close)
	get(t, standalone.URL+"/v1/single-source?node=1&seed=1")
	post(t, standalone.URL+"/v1/edges", `{"from":1,"to":200}`)

	c := startCluster(t, "hash")
	get(t, c.proxy.URL+"/v1/single-source?node=1&seed=1")
	if code, _, body := post(t, c.proxy.URL+"/v1/edges", `{"from":1,"to":200}`); code != http.StatusOK {
		t.Fatalf("proxied write = %d %v", code, body)
	}
	f := c.followers[0]
	waitFor(t, 10*time.Second, "follower at the write's epoch", func() bool {
		_, _, h := get(t, f.URL+"/healthz")
		return h["epoch"] == float64(2)
	})

	replicated := slices.Sorted(slices.Values(append(slices.Clone(simrankdFamilies), replicationFamilies...)))
	for _, tc := range []struct {
		name, url string
		want      []string
	}{
		{"standalone", standalone.URL, simrankdFamilies},
		{"leader", c.leader.URL, replicated},
		{"follower", f.URL, replicated},
		{"simproxy", c.proxy.URL, simproxyFamilies},
	} {
		if got := families(t, tc.url); !slices.Equal(got, tc.want) {
			t.Errorf("%s /metricsz families:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
