// Command perfbench is the serving stack's benchmark. It generates the
// graph, starts the real simrankd (and, for the cluster workloads, a
// follower and simproxy) as child processes on loopback, drives one named
// workload from this single process, checks the answers, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics of a separate
// traced run (-trace 1). The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through perfbench/run.sh, which builds the binaries first; see
// perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/simrank/simpush"
)

// Engine options every replica and the in-process checks use.
const (
	optEps   = 0.02
	optDelta = 1e-4
	optC     = 0.6
	optSeed  = 0
)

func engineOptions() simpush.Options {
	return simpush.Options{C: optC, Epsilon: optEps, Delta: optDelta, Seed: optSeed}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	bin      string
	work     string
}

// metric is one reported number with its unit and the sample count it
// rests on.
type metric struct {
	value   float64
	unit    string
	samples int
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	env       map[string]any
	notes     []string
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: cold-topk, hot-feed or churn-mixed")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated traffic")
	flag.IntVar(&opt.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.bin, "bin", ".bench_build/bin", "directory holding simrankd and simproxy")
	flag.StringVar(&opt.work, "work", ".bench_build", "directory for the graph and the daemon logs")
	flag.Parse()

	// Every run has to end within three minutes; leave room to stop the
	// children.
	ctx, cancel := context.WithTimeout(context.Background(), 165*time.Second)
	rep, err := run(ctx, opt)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

// bench carries what every phase of one run shares.
type bench struct {
	opt    options
	w      workload
	root   string
	graph  graphFile
	g      *simpush.Graph
	nproc  int
	logs   string
	window time.Duration
	gen    *generator // the run's generator: pinned seed and sampling streams
}

func run(ctx context.Context, opt options) (*report, error) {
	w, err := lookupWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	if opt.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if opt.trace != 0 && opt.trace != 1 {
		return nil, errors.New("-trace must be 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"simrankd", "simproxy"} {
		if _, err := os.Stat(filepath.Join(opt.bin, p)); err != nil {
			return nil, fmt.Errorf("missing binary: %w", err)
		}
	}
	b := &bench{opt: opt, w: w, root: root, nproc: runtime.NumCPU(),
		window: time.Duration(opt.seconds) * time.Second}
	b.logs = filepath.Join(opt.work, "logs", fmt.Sprintf("%s-%d-%d", w.name, opt.seed, opt.trace))
	if err := os.MkdirAll(b.logs, 0o755); err != nil {
		return nil, err
	}
	if b.graph, err = ensureGraph(root, filepath.Join(opt.work, "graph")); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if b.g, err = simpush.LoadEdgeList(b.graph.path, false); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	b.gen = newGenerator(w, b.g, opt.seed)

	var rep *report
	if opt.trace == 0 {
		rep, err = b.endToEnd(ctx)
	} else {
		rep, err = b.traced(ctx)
	}
	if err != nil {
		return nil, err
	}
	rep.env, err = b.environment()
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func (b *bench) stackConfig(traceRing int) stackConfig {
	return stackConfig{bin: b.opt.bin, logs: b.logs, graph: b.graph.path, cluster: b.w.cluster,
		traceRing: traceRing, gomaxprocs: b.nproc}
}

// setupRuns is how many times a run sets the stack up to measure setup_s;
// the last set-up serves the timed window.
const setupRuns = 3

// endToEnd measures the end-to-end metrics with span recording off.
func (b *bench) endToEnd(ctx context.Context) (*report, error) {
	var setups []float64
	var top *topology
	defer func() { top.stop() }()
	for i := 0; i < setupRuns; i++ {
		t, d, err := startStack(ctx, b.stackConfig(0))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			t.stop()
		} else {
			top = t
		}
	}
	win, err := b.measure(ctx, top, false)
	if err != nil {
		return nil, err
	}
	rss, err := top.peakRSS()
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]metric{}}
	rep.correct, rep.notes, err = b.verify(ctx, top, win)
	if err != nil {
		return nil, err
	}
	setup, _ := percentile(setups, 50)
	rep.metrics["setup_s"] = metric{setup, "s", len(setups)}
	rep.metrics["rss_mb"] = metric{rss, "MiB", len(top.daemons)}
	win.endToEnd(rep)
	return rep, nil
}

// slices is how many equal parts of the timed window the read latency is
// summarised over: each percentile is the median of the parts' own
// percentiles, so a few seconds in which a shared host runs slow move one
// part, not the run.
const slices = 5

// endToEnd adds the window's end-to-end metrics to rep.
func (win *window) endToEnd(rep *report) {
	reads, completed := 0, 0
	var last time.Duration
	for _, s := range win.spans {
		rep.attempted++
		if s.status != 0 {
			completed++
		}
		last = max(last, s.done)
		if !s.ok() {
			rep.failed++
		} else if !s.req.isWrite() {
			reads++
		}
	}
	rep.metrics["query_qps"] = metric{float64(reads) / last.Seconds(), "1/s", reads}
	rep.metrics["query_p75_ms"] = metric{win.readPercentile(75), "ms", reads}
	rep.metrics["cpu_ms_per_req"] = metric{ms(win.cpu) / float64(max(completed, 1)), "ms", completed}
}

// readPercentile is the median over the window's parts of each part's
// p-th percentile of successful read latency. A read belongs to the part
// its scheduled send time falls in.
func (win *window) readPercentile(p float64) float64 {
	parts := make([][]float64, slices)
	for _, s := range win.spans {
		if s.ok() && !s.req.isWrite() {
			k := min(int(s.due/win.slice), slices-1)
			parts[k] = append(parts[k], s.latency())
		}
	}
	per := make([]float64, slices)
	for k, lat := range parts {
		per[k], _ = percentile(lat, p)
	}
	v, _ := percentile(per, 50)
	return v
}

// print writes one line per metric, the environment stanza, and the
// result object as the last line.
func (r *report) print(f *os.File) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]any{}
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "%-36s %14.6f %-6s samples=%d\n", n, m.value, m.unit, m.samples)
		out[n] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, note := range r.notes {
		fmt.Fprintln(f, "note:", note)
	}
	env, err := json.Marshal(map[string]any{"env": r.env})
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(env))
	last, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(last))
	return err
}
