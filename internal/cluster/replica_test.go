package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// stubReplica answers /healthz with the given status and body and 404s
// everything else, recording every path it was asked for.
type stubReplica struct {
	*httptest.Server
	mu    sync.Mutex
	paths []string
}

func newStubReplica(t *testing.T, code int, body string) *stubReplica {
	t.Helper()
	st := &stubReplica{}
	st.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		st.paths = append(st.paths, r.URL.Path)
		st.mu.Unlock()
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(st.Close)
	return st
}

// probeStub runs one probe round against a lone stub and returns its
// replica.
func probeStub(t *testing.T, st *stubReplica) *Replica {
	t.Helper()
	set, err := NewSet(SetConfig{Replicas: []string{st.URL}})
	if err != nil {
		t.Fatal(err)
	}
	set.ProbeOnce(context.Background())
	return set.Replicas()[0]
}

// TestProbeTakesLagFromHealthz: lag comes from the same /healthz
// response that decides health, so a follower reporting lag beyond
// MaxLag is never routable, even when it answers nothing else.
func TestProbeTakesLagFromHealthz(t *testing.T) {
	st := newStubReplica(t, http.StatusOK, `{"status":"ok","role":"follower","epoch":3,"lag":100,"in_flight":0,"n":300}`)
	rep := probeStub(t, st)
	if rep.Routable() || rep.Status() != "lagging" {
		t.Fatalf("follower reporting lag 100: routable=%v status=%s, want unroutable and lagging", rep.Routable(), rep.Status())
	}
}

// TestProbeOneRequestPerReplica: a probe round costs each replica exactly
// one GET /healthz, and every field routing needs comes from it.
func TestProbeOneRequestPerReplica(t *testing.T) {
	st := newStubReplica(t, http.StatusOK, `{"status":"ok","role":"leader","epoch":5,"lag":0,"in_flight":3,"n":300}`)
	rep := probeStub(t, st)
	st.mu.Lock()
	paths := append([]string(nil), st.paths...)
	st.mu.Unlock()
	if len(paths) != 1 || paths[0] != "/healthz" {
		t.Fatalf("one probe round sent %v, want exactly [/healthz]", paths)
	}
	if !rep.Routable() || !rep.leader.Load() || rep.epoch.Load() != 5 || rep.n.Load() != 300 || rep.Load() != 3 {
		t.Fatalf("probed replica: routable=%v leader=%v epoch=%d n=%d load=%d",
			rep.Routable(), rep.leader.Load(), rep.epoch.Load(), rep.n.Load(), rep.Load())
	}
}

// TestProbeFailsClosed: a 200 whose body does not decode makes the
// replica unroutable, and a 503 keeps the replica's own status string.
func TestProbeFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		code       int
		body, want string
	}{
		{http.StatusOK, `ok`, "malformed"},
		{http.StatusOK, `{"status":"ok","lag":"many"}`, "malformed"},
		{http.StatusServiceUnavailable, `{"status":"catching_up","applied_epoch":1,"target_epoch":4}`, "catching_up"},
		{http.StatusServiceUnavailable, `<html>`, "unreachable"},
	} {
		rep := probeStub(t, newStubReplica(t, tc.code, tc.body))
		if rep.Routable() || rep.healthy.Load() || rep.Status() != tc.want {
			t.Errorf("%d %s: routable=%v healthy=%v status=%s, want unroutable %s",
				tc.code, tc.body, rep.Routable(), rep.healthy.Load(), rep.Status(), tc.want)
		}
	}
}
