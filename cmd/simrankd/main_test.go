package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/simrank/simpush/internal/obs"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n0 2\n1 3\n2 4\n3 0\n4 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSourceValidation(t *testing.T) {
	if _, _, err := loadSource(daemonConfig{}); err == nil {
		t.Fatal("no graph and no dataset must be rejected")
	}
	if _, _, err := loadSource(daemonConfig{graphPath: "x", dataset: "y"}); err == nil {
		t.Fatal("-graph with -dataset must be rejected")
	}
	if _, _, err := loadSource(daemonConfig{graphPath: filepath.Join(t.TempDir(), "nope")}); err == nil {
		t.Fatal("missing graph file must surface")
	}
}

// TestDaemonServesAndShutsDown boots the daemon on an ephemeral port,
// exercises the API end to end (including a cache hit on the repeated
// query and a live mutation), then cancels the context and expects a
// clean graceful shutdown.
func TestDaemonServesAndShutsDown(t *testing.T) {
	cfg := daemonConfig{
		addr:         "127.0.0.1:0",
		graphPath:    writeTestGraph(t),
		eps:          0.05,
		delta:        1e-4,
		decay:        0.6,
		cacheEntries: 128,
		timeout:      5 * time.Second,
		maxTimeout:   10 * time.Second,
		maxBatch:     16,
		grace:        5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ready) }()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("decoding %s: %v", raw, err)
			}
		}
		return resp.StatusCode, m
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, body := get("/v1/single-source?node=0&seed=1"); code != 200 || body["cache"] != "computed" {
		t.Fatalf("first query = %d %v", code, body)
	}
	if code, body := get("/v1/single-source?node=0&seed=1"); code != 200 || body["cache"] != "hit" {
		t.Fatalf("repeat query = %d %v, want cache hit", code, body)
	}
	if code, _ := get("/v1/topk?node=0&k=3"); code != 200 {
		t.Fatalf("topk = %d", code)
	}
	if code, _ := get("/v1/pair?u=1&v=2"); code != 200 {
		t.Fatalf("pair = %d", code)
	}

	resp, err := http.Post(base+"/v1/edges", "application/json", strings.NewReader(`{"from":4,"to":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("edges = %d", resp.StatusCode)
	}
	// The mutation advances the epoch, so the cached entry is unreachable
	// and the query recomputes.
	if code, body := get("/v1/single-source?node=0&seed=1"); code != 200 || body["cache"] != "computed" {
		t.Fatalf("post-mutation query = %d %v, want computed", code, body)
	}

	if code, body := get("/healthz"); code != 200 || body["epoch"] != float64(2) || body["n"] != float64(5) {
		t.Fatalf("healthz after one write = %d %v, want epoch 2 and n 5", code, body)
	}
	resp, err = http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var requests float64
	for _, s := range samples {
		if s.Name == "simrankd_requests_total" {
			requests += s.Value
		}
	}
	if requests < 6 {
		t.Fatalf("metricsz counts %v requests, want >= 6", requests)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonStaticMode serves a frozen graph: queries work, mutations 501.
func TestDaemonStaticMode(t *testing.T) {
	cfg := daemonConfig{
		addr:       "127.0.0.1:0",
		graphPath:  writeTestGraph(t),
		static:     true,
		eps:        0.05,
		delta:      1e-4,
		decay:      0.6,
		timeout:    5 * time.Second,
		maxTimeout: 10 * time.Second,
		grace:      5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Post(base+"/v1/edges", "application/json", strings.NewReader(`{"from":0,"to":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("edges on static source = %d (%s), want 501", resp.StatusCode, raw)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestClusterRoleValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := daemonConfig{addr: "127.0.0.1:0", graphPath: writeTestGraph(t), grace: time.Second}

	cfg := base
	cfg.lead = true
	cfg.follow = "http://127.0.0.1:1"
	if err := run(ctx, cfg, nil); err == nil {
		t.Fatal("-lead with -follow must be rejected")
	}
	cfg = base
	cfg.lead = true
	cfg.static = true
	if err := run(ctx, cfg, nil); err == nil {
		t.Fatal("-lead with -static must be rejected")
	}
}

// TestDaemonLeaderFollower boots a -lead daemon and a -follow daemon on
// ephemeral ports and checks the replication contract end to end: the
// follower turns healthy, a write to the leader raises both epochs, and
// the follower refuses direct writes.
func TestDaemonLeaderFollower(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	graph := writeTestGraph(t)
	boot := func(cfg daemonConfig) (string, chan error) {
		t.Helper()
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(ctx, cfg, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, done
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
		return "", nil
	}
	base := daemonConfig{
		addr: "127.0.0.1:0", graphPath: graph,
		eps: 0.05, delta: 1e-4, decay: 0.6,
		timeout: 5 * time.Second, maxTimeout: 10 * time.Second,
		maxBatch: 16, grace: 5 * time.Second, replicationLog: 64,
	}
	leadCfg := base
	leadCfg.lead = true
	leaderURL, _ := boot(leadCfg)

	followCfg := base
	followCfg.follow = leaderURL
	followerURL, _ := boot(followCfg)

	status := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	deadline := time.Now().Add(10 * time.Second)
	for status(followerURL+"/healthz") != 200 {
		if time.Now().After(deadline) {
			t.Fatal("follower never became healthy")
		}
		time.Sleep(25 * time.Millisecond)
	}

	resp, err := http.Post(leaderURL+"/v1/edges", "application/json", strings.NewReader(`{"from":4,"to":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var applied struct {
		Epoch float64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || applied.Epoch != 2 {
		t.Fatalf("leader write = %d epoch %v, want 200 at epoch 2", resp.StatusCode, applied.Epoch)
	}

	epochOf := func(url string) float64 {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		var stats struct {
			Epoch float64 `json:"epoch"`
		}
		json.NewDecoder(resp.Body).Decode(&stats)
		return stats.Epoch
	}
	for epochOf(followerURL) != applied.Epoch {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %v, leader at %v", epochOf(followerURL), applied.Epoch)
		}
		time.Sleep(25 * time.Millisecond)
	}

	if code := statusOfWrite(t, followerURL); code != http.StatusConflict {
		t.Fatalf("direct write on follower = %d, want 409", code)
	}
}

func statusOfWrite(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/edges", "application/json", strings.NewReader(`{"from":0,"to":3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
