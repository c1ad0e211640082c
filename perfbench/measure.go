package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// window is what one timed phase produced.
type window struct {
	spans    []clientSpan
	lag      []time.Duration // generator lateness per request
	slice    time.Duration   // length of one of the window's equal parts
	cpu      time.Duration   // CPU time every child used during the window
	keep     map[int]bool    // indices whose bodies were kept
	before   [][]promSample  // /metricsz of every child before the phase (scrape only)
	after    [][]promSample  // ... and after it
	maxLag   int             // largest follower lag in epochs seen while polling
	replicas int             // the first `replicas` scrapes are simrankd's
}

// correctnessSamples is how many responses of a run the correctness gate
// recomputes.
const correctnessSamples = 6

// measure warms the stack up and runs the timed window. With scrape set it
// also reads every child's /metricsz around the window and polls the
// replicas' epochs during it.
func (b *bench) measure(ctx context.Context, top *topology, scrape bool) (*window, error) {
	l := newLoader(b.nproc)
	defer l.close()

	// Fresh generators, so every call sees the same inputs.
	gen := newGenerator(b.w, b.g, b.opt.seed)
	warmGen := gen.fork(b.opt.seed ^ 0x9e3779b97f4a7c15)
	var sched []request
	if b.w.clients == 0 {
		sched = gen.openSchedule(b.window)
	}
	// Warm-up: untimed, from its own input stream.
	if b.w.fillCaches {
		keys := warmGen.hotKeys()
		l.runOpen(ctx, &phase{base: top.front, prefix: "fill-"}, keys)
	}
	warm := &phase{base: top.front, prefix: "warm-"}
	if b.w.clients > 0 {
		l.runClosed(ctx, warm, b.w.clients, b.w.warmup, warmGen.read)
	} else {
		l.runOpen(ctx, warm, warmGen.openSchedule(b.w.warmup))
	}
	for _, s := range warm.spans {
		if !s.ok() {
			return nil, fmt.Errorf("warm-up %s request failed with status %d", s.req.kind, s.status)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	win := &window{keep: b.sampleIndices(len(sched)), replicas: len(top.replicas), slice: b.window / slices}
	if scrape {
		var err error
		if win.before, err = top.scrape(ctx); err != nil {
			return nil, err
		}
	}
	cpu0, err := top.cpu()
	if err != nil {
		return nil, err
	}
	p := &phase{base: top.front, prefix: "t-", keep: win.keep}
	stopPoll := func() int { return 0 }
	if scrape && b.w.cluster {
		stopPoll = top.pollLag(ctx)
	}
	if b.w.clients > 0 {
		l.runClosed(ctx, p, b.w.clients, b.window, gen.read)
	} else {
		l.runOpen(ctx, p, sched)
	}
	win.maxLag = stopPoll()
	cpu1, err := top.cpu()
	if err != nil {
		return nil, err
	}
	win.cpu = cpu1 - cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	win.spans, win.lag = p.spans, p.lag
	if scrape {
		if win.after, err = top.scrape(ctx); err != nil {
			return nil, err
		}
	}
	return win, nil
}

// sampleIndices picks which timed requests keep their response bodies for
// the correctness gate: seeded positions among the first scheduled
// requests (open loop) or among the first ones a closed loop is sure to
// reach.
func (b *bench) sampleIndices(scheduled int) map[int]bool {
	span := scheduled
	if span == 0 {
		span = 5 * b.opt.seconds
	}
	rng := b.gen.fork(b.opt.seed ^ 0xc0ffee).rng
	keep := map[int]bool{}
	for len(keep) < min(correctnessSamples, span) {
		keep[rng.IntN(span)] = true
	}
	return keep
}

// scrape reads /metricsz from every child.
func (t *topology) scrape(ctx context.Context) ([][]promSample, error) {
	out := make([][]promSample, len(t.daemons))
	for i, d := range t.daemons {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metricsz", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", d.name, err)
		}
		out[i], err = parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", d.name, err)
		}
	}
	return out, nil
}

// epoch reads a replica's committed epoch from /healthz.
func epoch(ctx context.Context, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Epoch int `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Epoch, nil
}

// pollLag samples how many epochs the follower trails the leader every
// 100ms until the returned function is called; that call stops the poller,
// waits for it, and returns the largest lag seen.
func (t *topology) pollLag(ctx context.Context) func() int {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	maxLag := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			lead, err1 := epoch(ctx, t.replicas[0].url)
			follow, err2 := epoch(ctx, t.replicas[1].url)
			if err1 == nil && err2 == nil {
				maxLag = max(maxLag, lead-follow)
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return maxLag
	}
}

// environment is the stanza printed with every record.
func (b *bench) environment() (map[string]any, error) {
	src, err := sourceDigest(b.root, ".")
	if err != nil {
		return nil, err
	}
	sha := "unavailable (not a git checkout)"
	if _, err := os.Stat(filepath.Join(b.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", b.root, "rev-parse", "HEAD").Output(); err == nil {
			sha = strings.TrimSpace(string(out))
		}
	}
	procs := map[string]int{"perfbench": runtime.GOMAXPROCS(0), "simrankd": b.nproc}
	if b.w.cluster {
		procs = map[string]int{"perfbench": runtime.GOMAXPROCS(0), "leader": b.nproc, "follower": b.nproc, "simproxy": b.nproc}
	}
	env := map[string]any{
		"workload":      b.w.name,
		"seed":          b.opt.seed,
		"seconds":       b.opt.seconds,
		"trace":         b.opt.trace,
		"nproc":         b.nproc,
		"gomaxprocs":    procs,
		"go_version":    runtime.Version(),
		"git_sha":       sha,
		"source_sha256": src,
		"graph": map[string]any{
			"dataset": graphDataset, "scale": graphScale, "relabel_seed": relabelSeed,
			"n": b.g.N(), "m": b.g.M(), "sha256": b.graph.sha256,
		},
		"engine": map[string]any{"eps": optEps, "delta": optDelta, "c": optC, "seed": optSeed},
	}
	if b.nproc == 1 {
		env["warning"] = "1-core record: no evidence of any parallel speedup"
	}
	return env, nil
}
