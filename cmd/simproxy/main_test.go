package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRunValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, proxyConfig{}, nil); err == nil {
		t.Fatal("missing -replicas must be rejected")
	}
	if err := run(ctx, proxyConfig{replicas: "a:1,a:1"}, nil); err == nil {
		t.Fatal("duplicate replicas must be rejected")
	}
	if err := run(ctx, proxyConfig{replicas: "a:1", policy: "random"}, nil); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}

// TestProxyServesAndShutsDown boots the proxy over one stub replica,
// routes a query through it, and expects a clean graceful shutdown.
func TestProxyServesAndShutsDown(t *testing.T) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprint(w, `{"status":"ok","role":"standalone","epoch":3,"n":10,"lag":0,"in_flight":0}`)
		case "/v1/single-source":
			fmt.Fprint(w, `{"node":1,"epoch":3}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer replica.Close()

	cfg := proxyConfig{
		addr:          "127.0.0.1:0",
		replicas:      replica.URL,
		policy:        "hash",
		maxLag:        16,
		probeInterval: 100 * time.Millisecond,
		probeTimeout:  time.Second,
		timeout:       5 * time.Second,
		grace:         5 * time.Second,
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
		t.Fatalf("proxy exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("proxy never became ready")
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

	if code, body := get("/healthz"); code != 200 || body["routable"] != float64(1) ||
		body["epoch"] != float64(3) || body["n"] != float64(10) {
		t.Fatalf("healthz = %d %v, want 1 routable replica at epoch 3 with n 10", code, body)
	}
	if code, body := get("/v1/single-source?node=1&seed=1"); code != 200 || body["epoch"].(float64) != 3 {
		t.Fatalf("proxied query = %d %v", code, body)
	}
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("simproxy_replica_up{replica=%q} 1", strings.TrimPrefix(replica.URL, "http://"))
	if resp.StatusCode != 200 || !strings.Contains(string(metrics), want) {
		t.Fatalf("metricsz = %d, want a line %q in:\n%s", resp.StatusCode, want, metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not shut down")
	}
}
