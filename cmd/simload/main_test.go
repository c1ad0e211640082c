package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/server"
	"github.com/simrank/simpush/internal/workload"
)

func startTarget(t *testing.T) string {
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

func TestListScenarios(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, name := range []string{"social-feed", "fraud-neighbors", "recommendation"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestValidateResolvesPreset(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-scenario", "social-feed", "-seed", "42", "-validate"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var spec workload.Spec
	if err := json.Unmarshal(out.Bytes(), &spec); err != nil {
		t.Fatalf("-validate did not print spec JSON: %v\n%s", err, out.String())
	}
	if spec.Seed != 42 {
		t.Fatalf("seed override not applied: %d", spec.Seed)
	}
}

// TestRunAllScenariosEmitsBench is the end-to-end acceptance: every
// preset runs against a live server and the BENCH JSON carries every SLO
// field for every scenario.
func TestRunAllScenariosEmitsBench(t *testing.T) {
	target := startTarget(t)
	outPath := filepath.Join(t.TempDir(), "BENCH_PR8.json")
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-target", target,
		"-scenario", "all",
		"-duration", "1s",
		"-rate-scale", "1",
		"-out", outPath,
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}

	// The effective seed must be printed for every scenario.
	if n := strings.Count(errBuf.String(), "seed="); n < 3 {
		t.Errorf("effective seed printed %d times, want one per scenario:\n%s", n, errBuf.String())
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCH JSON does not parse: %v", err)
	}
	if len(bench.Scenarios) != 3 {
		t.Fatalf("want 3 scenario reports, got %d", len(bench.Scenarios))
	}
	for _, rep := range bench.Scenarios {
		if rep.Scenario == "" || rep.Seed == 0 || rep.Requests == 0 {
			t.Errorf("scenario report incomplete: %+v", rep)
		}
		if rep.SLO.SLO.P50TargetMs <= 0 || rep.SLO.SLO.P99TargetMs <= 0 {
			t.Errorf("%s: SLO targets missing from report", rep.Scenario)
		}
		if rep.SLO.AttainmentPct <= 0 && rep.OK > 0 {
			t.Errorf("%s: attainment not scored", rep.Scenario)
		}
		if rep.Latency.P50Ms <= 0 && rep.OK > 0 {
			t.Errorf("%s: latency not measured", rep.Scenario)
		}
		if rep.ServerCounters == nil {
			t.Errorf("%s: counter blocks missing (target is a simrankd)", rep.Scenario)
		} else if rep.OK > 0 && rep.Cache.Hits+rep.Cache.Misses == 0 {
			t.Errorf("%s: cache block shows no movement over %d ok requests", rep.Scenario, rep.OK)
		}
	}
	// The counter blocks sit at the top level of each report, with
	// metrics_delta keeping only what the top level does not already say.
	var doc struct {
		Scenarios []map[string]json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cache", "engine_queries", "epoch_advances", "admission_rejected", "server_epoch", "metrics_delta"} {
		if _, ok := doc.Scenarios[0][field]; !ok {
			t.Errorf("report has no top-level %q", field)
		}
	}
	var delta map[string]json.RawMessage
	if err := json.Unmarshal(doc.Scenarios[0]["metrics_delta"], &delta); err != nil {
		t.Fatal(err)
	}
	for field := range delta {
		if field != "engine_stage_seconds" && field != "admission_waits" && field != "admission_wait_seconds" {
			t.Errorf("metrics_delta repeats %q", field)
		}
	}
	// At least one scenario computes (cache cold at start), so per-stage
	// engine seconds must have accumulated somewhere.
	var stageSum float64
	for _, rep := range bench.Scenarios {
		if rep.ServerCounters != nil {
			for _, v := range rep.Metrics.EngineStageSeconds {
				stageSum += v
			}
		}
	}
	if stageSum <= 0 {
		t.Error("metrics_delta engine_stage_seconds never accumulated across scenarios")
	}
	// fraud-neighbors mutates, so at least one report must show epoch
	// movement.
	advanced := false
	for _, rep := range bench.Scenarios {
		if rep.EpochAdvances > 0 {
			advanced = true
		}
	}
	if !advanced {
		t.Error("no scenario advanced the epoch (edge-ingest class missing?)")
	}
}

func TestSpecFileRun(t *testing.T) {
	target := startTarget(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	spec := `{
  "name": "custom",
  "duration": "500ms",
  "seed": 9,
  "classes": [{
    "name": "c",
    "arrival": {"process": "poisson", "rate_rps": 40},
    "popularity": {"dist": "hotset", "hot": 4, "hot_frac": 0.9},
    "mix": [{"op": "single-source", "weight": 1}]
  }],
  "slo": {"p50_target_ms": 10000, "p99_target_ms": 10000, "attain_ms": 10000, "attain_target_pct": 1, "max_error_pct": 100}
}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	code := run([]string{"-target", target, "-spec", specPath, "-strict"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "custom") {
		t.Fatalf("summary missing scenario name:\n%s", out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Fatalf("no selection: exit %d, want 2", code)
	}
	if code := run([]string{"-scenario", "x", "-spec", "y"}, &out, &errBuf); code != 2 {
		t.Fatalf("conflicting selection: exit %d, want 2", code)
	}
	if code := run([]string{"-scenario", "nope", "-validate"}, &out, &errBuf); code != 2 {
		t.Fatalf("unknown scenario: exit %d, want 2", code)
	}
}
