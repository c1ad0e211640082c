// Command simrankd is the SimRank serving daemon: it loads (or
// generates) a graph, wraps it in a live DynamicGraph, and exposes the
// full simpush query surface over HTTP/JSON with epoch-aware result
// caching, single-flight coalescing and admission control (see
// docs/http-api.md for the API).
//
// Endpoints:
//
//	GET    /v1/single-source  full similarity row of one node
//	GET    /v1/topk           k most similar nodes
//	GET    /v1/pair           one s(u, v) value
//	POST   /v1/batch          many single-source queries, one epoch
//	POST   /v1/edges          add edges (live source)
//	DELETE /v1/edges          remove edges (live source)
//	GET    /healthz           readiness: role, epoch, n, lag, in-flight (503 while draining)
//	GET    /metricsz          every serving counter, Prometheus text exposition
//	GET    /debug/queries     last-N completed query traces (with -trace-queries)
//	GET    /v1/replication    leader-only mutation feed (with -lead)
//
// Observability: every response carries an X-Request-Id (client-supplied
// ids are echoed); -trace-queries keeps a ring of completed query traces
// with per-stage engine spans; -slow-query-ms logs slow queries with
// their spans; logs are structured (-log-level, -log-format);
// -debug-addr serves net/http/pprof on a separate listener (see
// docs/observability.md).
//
// Shutdown is graceful: on SIGINT/SIGTERM the daemon flips /healthz to
// 503, stops accepting connections, lets in-flight requests finish
// (bounded by -grace), then closes the query client and exits.
//
// Examples:
//
//	simrankd -graph web.txt -addr :8080
//	simrankd -dataset dblp-sim -scale 0.5 -eps 0.05
//	simrankd -graph web.txt -addr :8081 -lead
//	simrankd -graph web.txt -addr :8082 -follow http://127.0.0.1:8081
//
// With -lead the daemon is a replication leader: every write batch
// commits atomically at exactly one new epoch and is retained in a
// bounded in-memory log that followers stream via /v1/replication. With
// -follow the daemon replays that feed (rejecting direct writes with
// 409) and /healthz reports catching_up until it reaches the leader's
// epoch. Front a leader plus its followers with simproxy to get one
// serving surface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/obs"
	"github.com/simrank/simpush/internal/server"
)

type daemonConfig struct {
	addr       string
	graphPath  string
	undirected bool
	dataset    string
	scale      float64
	static     bool

	eps   float64
	delta float64
	decay float64
	seed  uint64

	cacheEntries int
	maxInFlight  int
	maxQueue     int
	timeout      time.Duration
	maxTimeout   time.Duration
	maxBatch     int
	grace        time.Duration

	lead           bool
	follow         string
	replicationLog int

	traceQueries int
	slowQueryMs  int
	debugAddr    string
	logLevel     string
	logFormat    string
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.graphPath, "graph", "", "edge list file to serve")
	flag.BoolVar(&cfg.undirected, "undirected", false, "symmetrize the edge list")
	flag.StringVar(&cfg.dataset, "dataset", "", "serve a synthetic dataset stand-in instead of -graph (see simgen)")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "dataset scale factor (with -dataset)")
	flag.BoolVar(&cfg.static, "static", false, "serve the graph frozen (disables /v1/edges)")
	flag.Float64Var(&cfg.eps, "eps", 0.02, "default absolute error bound ε")
	flag.Float64Var(&cfg.delta, "delta", 1e-4, "default failure probability δ")
	flag.Float64Var(&cfg.decay, "c", 0.6, "SimRank decay factor")
	flag.Uint64Var(&cfg.seed, "seed", 0, "base random seed")
	flag.IntVar(&cfg.cacheEntries, "cache-entries", 0, "result cache bound (0 auto-sizes from a ~256MB budget and the graph size; negative disables caching, keeps coalescing)")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "concurrent engine computations (0 = 2×GOMAXPROCS)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "requests allowed to wait for a slot (0 = 4×max-inflight)")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "default per-request deadline")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", time.Minute, "upper bound on the ?timeout parameter")
	flag.IntVar(&cfg.maxBatch, "max-batch", 256, "max nodes per /v1/batch request")
	flag.DurationVar(&cfg.grace, "grace", 15*time.Second, "shutdown drain budget")
	flag.BoolVar(&cfg.lead, "lead", false, "serve as the cluster's replication leader: accept writes and publish the mutation feed on /v1/replication")
	flag.StringVar(&cfg.follow, "follow", "", "serve as a follower of this leader base URL: reject direct writes and replay the leader's mutation feed")
	flag.IntVar(&cfg.replicationLog, "replication-log", 1024, "mutation batches the leader retains for followers (with -lead)")
	flag.IntVar(&cfg.traceQueries, "trace-queries", 128, "completed query traces retained for /debug/queries (0 disables the ring)")
	flag.IntVar(&cfg.slowQueryMs, "slow-query-ms", 0, "log queries at least this slow with their per-stage spans (0 disables)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug | info | warn | error")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log format: text | json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "simrankd:", err)
		os.Exit(1)
	}
}

// loadSource builds the graph source the daemon serves.
func loadSource(cfg daemonConfig) (simpush.GraphSource, *simpush.Graph, error) {
	var g *simpush.Graph
	var err error
	switch {
	case cfg.graphPath != "" && cfg.dataset != "":
		return nil, nil, errors.New("-graph and -dataset are mutually exclusive")
	case cfg.graphPath != "":
		g, err = simpush.LoadEdgeList(cfg.graphPath, cfg.undirected)
	case cfg.dataset != "":
		g, err = simpush.Dataset(cfg.dataset, cfg.scale)
	default:
		return nil, nil, errors.New("one of -graph or -dataset is required")
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.static {
		return g, g, nil
	}
	return simpush.DynamicFromGraph(g), g, nil
}

// run starts the daemon and blocks until ctx is cancelled (signal) or the
// listener fails. If ready is non-nil it receives the bound address once
// the server is listening — the hook the tests and :0 use.
func run(ctx context.Context, cfg daemonConfig, ready chan<- string) error {
	logger, err := obs.NewLogger(os.Stderr, cfg.logLevel, cfg.logFormat, "simrankd")
	if err != nil {
		return err
	}

	role := server.RoleStandalone
	switch {
	case cfg.lead && cfg.follow != "":
		return errors.New("-lead and -follow are mutually exclusive")
	case cfg.lead:
		role = server.RoleLeader
	case cfg.follow != "":
		role = server.RoleFollower
	}
	if role != server.RoleStandalone && cfg.static {
		return errors.New("-lead/-follow need a live graph source (drop -static)")
	}

	src, g, err := loadSource(cfg)
	if err != nil {
		return err
	}
	client, err := simpush.NewClient(src, simpush.Options{
		C: cfg.decay, Epsilon: cfg.eps, Delta: cfg.delta, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Client:         client,
		CacheEntries:   cfg.cacheEntries,
		MaxInFlight:    cfg.maxInFlight,
		MaxQueue:       cfg.maxQueue,
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTimeout,
		MaxBatch:       cfg.maxBatch,
		Role:           role,
		LeaderURL:      cfg.follow,
		ReplicationLog: cfg.replicationLog,
		TraceRing:      cfg.traceQueries,
		SlowQuery:      time.Duration(cfg.slowQueryMs) * time.Millisecond,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	srv.StartReplication(ctx)

	if cfg.debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		logger.Info("pprof listening", "debug_addr", dln.Addr().String())
		go http.Serve(dln, dmux)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	mode := "live"
	if cfg.static {
		mode = "static"
	}
	if role != server.RoleStandalone {
		mode += " " + string(role)
	}
	logger.Info("daemon listening",
		"addr", ln.Addr().String(),
		"mode", mode,
		"graph_n", g.N(),
		"graph_m", g.M())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: flip /healthz first so load balancers stop routing
	// here, then stop accepting and let in-flight requests finish, then
	// fail any stragglers fast by closing the client.
	logger.Info("shutdown: draining", "budget", cfg.grace.String())
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown: forcing close", "error", err.Error())
		httpSrv.Close()
	}
	if err := client.Close(); err != nil {
		return err
	}
	logger.Info("shutdown: drained cleanly")
	return nil
}
