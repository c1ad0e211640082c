// Command simproxy fronts a replicated simrankd cluster with one
// serving surface. It routes read queries across the replicas by a
// pluggable policy, sends mutations only to the leader, and fails over
// away from draining, lagging or unreachable replicas (see
// docs/cluster.md).
//
// Policies (-policy):
//
//	hash          consistent-hash on the query node (default). Every
//	              query for node u lands on the same replica, so each
//	              replica's epoch-keyed result cache concentrates on its
//	              own slice of the hot set — aggregate hit rate grows
//	              with the replica count.
//	least-loaded  pick the replica with the fewest in-flight requests.
//	round-robin   cycle through the routable replicas.
//
// Endpoints: the full simrankd query surface (/v1/single-source,
// /v1/topk, /v1/pair, /v1/batch, /v1/edges) plus the proxy's own
// /healthz (routable count, leader, epoch and graph size; 503 only when
// no replica is routable) and /metricsz (Prometheus text: the proxy's
// counters plus each replica's probed state under a "replica" label).
//
// Every request is stamped with an X-Request-Id (client-supplied ids
// are kept) and the id is forwarded to the chosen replica, so one grep
// follows a query across proxy and replica logs and traces. Logs are
// structured (-log-level, -log-format); -debug-addr serves net/http/pprof
// on a separate listener.
//
// Example (leader on :8081, followers on :8082/:8083):
//
//	simproxy -addr :8080 -replicas 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
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
	"strings"
	"syscall"
	"time"

	"github.com/simrank/simpush/internal/cluster"
	"github.com/simrank/simpush/internal/obs"
)

type proxyConfig struct {
	addr          string
	replicas      string
	policy        string
	maxLag        int64
	probeInterval time.Duration
	probeTimeout  time.Duration
	timeout       time.Duration
	grace         time.Duration
	logLevel      string
	logFormat     string
	debugAddr     string
}

func main() {
	var cfg proxyConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.replicas, "replicas", "", "comma-separated simrankd base URLs (required)")
	flag.StringVar(&cfg.policy, "policy", "hash", "read routing policy: hash (cache affinity), least-loaded, round-robin")
	flag.Int64Var(&cfg.maxLag, "max-lag", 16, "epochs a follower may trail the leader before reads fail over away from it")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", time.Second, "replica health probe cadence")
	flag.DurationVar(&cfg.probeTimeout, "probe-timeout", 2*time.Second, "per-probe deadline")
	flag.DurationVar(&cfg.timeout, "timeout", 90*time.Second, "proxied request deadline")
	flag.DurationVar(&cfg.grace, "grace", 15*time.Second, "shutdown drain budget")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug | info | warn | error")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log format: text | json")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "simproxy:", err)
		os.Exit(1)
	}
}

// run starts the proxy and blocks until ctx is cancelled (signal) or the
// listener fails. If ready is non-nil it receives the bound address once
// the proxy is listening.
func run(ctx context.Context, cfg proxyConfig, ready chan<- string) error {
	logger, err := obs.NewLogger(os.Stderr, cfg.logLevel, cfg.logFormat, "simproxy")
	if err != nil {
		return err
	}

	if strings.TrimSpace(cfg.replicas) == "" {
		return errors.New("-replicas is required (comma-separated simrankd base URLs)")
	}
	var urls []string
	for _, u := range strings.Split(cfg.replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	set, err := cluster.NewSet(cluster.SetConfig{
		Replicas:      urls,
		MaxLag:        cfg.maxLag,
		ProbeInterval: cfg.probeInterval,
		ProbeTimeout:  cfg.probeTimeout,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	proxy, err := cluster.New(cluster.Config{Set: set, Policy: cfg.policy, Timeout: cfg.timeout, Logger: logger})
	if err != nil {
		return err
	}

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

	// Probe before accepting traffic so the first request already routes
	// on real health state, then keep probing in the background.
	set.ProbeOnce(ctx)
	set.Start(ctx)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: proxy.Handler()}
	logger.Info("proxy listening",
		"addr", ln.Addr().String(),
		"replicas", len(set.Replicas()),
		"routable", len(set.Routable()),
		"policy", proxy.Policy().Name())
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

	logger.Info("shutdown: draining", "budget", cfg.grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown: forcing close", "error", err.Error())
		httpSrv.Close()
	}
	logger.Info("shutdown: drained cleanly")
	return nil
}
