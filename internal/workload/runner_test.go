package workload_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/cluster"
	"github.com/simrank/simpush/internal/server"
	"github.com/simrank/simpush/internal/workload"
)

// newTestTarget boots a live serving stack (dynamic graph, so the
// mutation ops work) and returns its base URL.
func newTestTarget(t *testing.T) string {
	t.Helper()
	g, err := simpush.SyntheticWebGraph(400, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := simpush.NewClient(simpush.DynamicFromGraph(g), simpush.Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	srv, err := server.New(server.Config{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRunOpenLoopScoresSLO replays a small mixed open-loop workload —
// queries plus mutations — against a live server and checks the report:
// requests landed, percentiles and attainment are populated, mutations
// advanced the epoch, and repeated pinned-seed queries hit the cache.
func TestRunOpenLoopScoresSLO(t *testing.T) {
	base := newTestTarget(t)
	spec := &workload.Spec{
		Name:     "runner-open",
		Duration: workload.Duration(1200 * time.Millisecond),
		Seed:     0x5eed,
		Classes: []workload.ClassSpec{
			{
				Name:       "readers",
				Arrival:    workload.ArrivalSpec{Process: "poisson", RateRPS: 60},
				Popularity: workload.PopularitySpec{Dist: "hotset", Hot: 4, HotFrac: 0.9},
				Mix: []workload.OpMix{
					{Op: workload.OpTopK, Weight: 0.6},
					{Op: workload.OpSingleSource, Weight: 0.4},
				},
				K: 5,
			},
			{
				Name:       "writers",
				Arrival:    workload.ArrivalSpec{Process: "poisson", RateRPS: 3},
				Popularity: workload.PopularitySpec{Dist: "uniform"},
				Mix:        []workload.OpMix{{Op: workload.OpAddEdge, Weight: 1}},
			},
		},
		SLO: workload.SLO{
			P50TargetMs: 5000, P99TargetMs: 10000,
			AttainMs: 10000, AttainTargetPct: 50, MaxErrorPct: 50,
		},
	}
	rep, err := workload.Run(context.Background(), spec, workload.RunOptions{Target: base})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 20 {
		t.Fatalf("too few requests: %d", rep.Requests)
	}
	if rep.OK == 0 {
		t.Fatalf("no successful requests: %+v", rep)
	}
	if rep.Latency.P50Ms <= 0 || rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Fatalf("implausible percentiles: %+v", rep.Latency)
	}
	if rep.SLO.AttainmentPct <= 0 {
		t.Fatalf("attainment not computed: %+v", rep.SLO)
	}
	if rep.EpochAdvances == 0 {
		t.Fatalf("writer class issued mutations but epoch never advanced: %+v", rep)
	}
	if rep.Cache.Hits == 0 {
		t.Fatal("pinned hot-set repeats produced zero cache hits")
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("want 2 class reports, got %d", len(rep.Classes))
	}
	for _, c := range rep.Classes {
		if c.Requests == 0 {
			t.Fatalf("class %s sent nothing", c.Class)
		}
	}
	mutations := rep.Classes[1].Mutations
	if mutations == 0 {
		t.Fatal("writer class recorded no mutations")
	}
	// Loose generosity bounds make the SLO scoring itself deterministic
	// here: everything under 10s must pass.
	if !rep.SLO.Pass {
		t.Fatalf("generous SLO scored as a miss: %+v", rep.SLO)
	}
}

// TestRunClosedLoop drives the closed-loop mode: fixed workers, hot-set
// popularity, cache hits expected.
func TestRunClosedLoop(t *testing.T) {
	base := newTestTarget(t)
	spec := &workload.Spec{
		Name:     "runner-closed",
		Duration: workload.Duration(500 * time.Millisecond),
		Seed:     99,
		Classes: []workload.ClassSpec{{
			Name:       "load",
			Arrival:    workload.ArrivalSpec{Process: "closed", Concurrency: 4},
			Popularity: workload.PopularitySpec{Dist: "hotset", Hot: 4, HotFrac: 1},
			Mix:        []workload.OpMix{{Op: workload.OpSingleSource, Weight: 1}},
			SeedPolicy: "hot-pinned",
		}},
		SLO: workload.SLO{AttainMs: 10000, AttainTargetPct: 1},
	}
	rep, err := workload.Run(context.Background(), spec, workload.RunOptions{Target: base})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.OK == 0 {
		t.Fatalf("closed loop sent nothing: %+v", rep)
	}
	if rep.Cache.HitRate == 0 {
		t.Fatalf("pure hot closed loop reported zero hit rate: %+v", rep.Cache)
	}
}

// TestRunAgainstProxy: through a simproxy the run is scored from the
// proxy's /healthz epoch, and the counter blocks — which only a
// simrankd's /metricsz carries — are omitted rather than zeroed.
func TestRunAgainstProxy(t *testing.T) {
	set, err := cluster.NewSet(cluster.SetConfig{Replicas: []string{newTestTarget(t)}})
	if err != nil {
		t.Fatal(err)
	}
	set.ProbeOnce(context.Background())
	p, err := cluster.New(cluster.Config{Set: set})
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)
	spec := &workload.Spec{
		Name:     "via-proxy",
		Duration: workload.Duration(300 * time.Millisecond),
		Seed:     3,
		Classes: []workload.ClassSpec{{
			Name:       "readers",
			Arrival:    workload.ArrivalSpec{Process: "closed", Concurrency: 2},
			Popularity: workload.PopularitySpec{Dist: "hotset", Hot: 4, HotFrac: 1},
			Mix:        []workload.OpMix{{Op: workload.OpTopK, Weight: 1}},
			K:          3,
		}},
		SLO: workload.SLO{AttainMs: 10000, AttainTargetPct: 1},
	}
	rep, err := workload.Run(context.Background(), spec, workload.RunOptions{Target: proxy.URL})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.ServerEpoch != 1 {
		t.Fatalf("proxied run: %d ok at server epoch %d, want traffic at epoch 1", rep.OK, rep.ServerEpoch)
	}
	if rep.ServerCounters != nil {
		t.Fatalf("proxied run reports replica counters it cannot see: %+v", rep.ServerCounters)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"cache"`, `"engine_queries"`, `"admission_rejected"`, `"metrics_delta"`} {
		if strings.Contains(string(raw), field) {
			t.Errorf("proxied report carries %s", field)
		}
	}
}

// TestRunValidation covers the runner's fast-fail paths.
func TestRunValidation(t *testing.T) {
	spec := &workload.Spec{
		Name:     "v",
		Duration: workload.Duration(time.Second),
		Classes: []workload.ClassSpec{{
			Name:       "c",
			Arrival:    workload.ArrivalSpec{Process: "poisson", RateRPS: 1},
			Popularity: workload.PopularitySpec{Dist: "uniform"},
			Mix:        []workload.OpMix{{Op: workload.OpSingleSource, Weight: 1}},
		}},
	}
	if _, err := workload.Run(context.Background(), spec, workload.RunOptions{}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := workload.Run(context.Background(), spec, workload.RunOptions{Target: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable target accepted")
	}
	bad := *spec
	bad.Classes = nil
	if _, err := workload.Run(context.Background(), &bad, workload.RunOptions{Target: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestRunHonorsContext: cancelling mid-run returns promptly with the
// partial result rather than hanging until the window lapses.
func TestRunHonorsContext(t *testing.T) {
	base := newTestTarget(t)
	spec := &workload.Spec{
		Name:     "cancel",
		Duration: workload.Duration(30 * time.Second),
		Seed:     7,
		Classes: []workload.ClassSpec{{
			Name:       "slow",
			Arrival:    workload.ArrivalSpec{Process: "poisson", RateRPS: 20},
			Popularity: workload.PopularitySpec{Dist: "uniform"},
			Mix:        []workload.OpMix{{Op: workload.OpSingleSource, Weight: 1}},
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := workload.Run(ctx, spec, workload.RunOptions{Target: base})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after context cancellation")
	}
}
