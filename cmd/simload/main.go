// Command simload drives a running simrankd or simproxy with a declarative
// workload and scores the result against the scenario's SLO.
//
// Traffic is fully replayable: the same spec and seed produce a
// byte-identical request trace on every run and at every GOMAXPROCS, so a
// regression seen under one run can be re-driven exactly. The effective
// seed is printed on every run for that reason.
//
// Presets (select with -scenario, or "all"):
//
//	social-feed       read-heavy Zipfian top-k feed ranking (no mutations)
//	fraud-neighbors   bursty single-source probes + steady edge ingest
//	recommendation    diurnal batch row refreshes + online pair checks
//
// Examples:
//
//	simload -list
//	simload -target http://localhost:8080 -scenario social-feed -duration 30s
//	simload -target http://localhost:8080 -scenario all -out BENCH_PR8.json
//	simload -spec my-workload.json -validate
//	simload -spec my-workload.json -target http://localhost:8080 -seed 7
//
// The -out file aggregates one scored Report per scenario (see
// docs/workloads.md for the schema); -strict exits nonzero when any
// scenario misses its SLO. Against a simrankd target each report also
// carries the counter movement over the run window, read from /metricsz
// before and after the run: cache hits, engine queries, admission
// rejections, and a metrics_delta block with per-stage engine seconds
// and admission waiting (see docs/observability.md). A simproxy target
// exposes no such counters, so those blocks are omitted. Diagnostics on
// stderr are structured logs (-log-level, -log-format).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/simrank/simpush/internal/obs"
	"github.com/simrank/simpush/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchFile is the -out JSON document: one scored report per scenario
// plus the overall verdict.
type benchFile struct {
	GeneratedBy string             `json:"generated_by"`
	Target      string             `json:"target"`
	Scenarios   []*workload.Report `json:"scenarios"`
	Pass        bool               `json:"pass"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target    = fs.String("target", "", "base URL of a running simrankd or simproxy")
		scenario  = fs.String("scenario", "", `preset name, comma-separated list, or "all"`)
		specPath  = fs.String("spec", "", "path to a JSON workload spec (alternative to -scenario)")
		seed      = fs.Uint64("seed", 0, "workload seed override (0 = preset/spec default); printed on every run")
		duration  = fs.Duration("duration", 0, "run window override (0 = preset/spec default)")
		rateScale = fs.Float64("rate-scale", 1, "multiply every preset class's arrival rate (CI smoke ↔ saturation)")
		out       = fs.String("out", "", "write the aggregated BENCH JSON here (e.g. BENCH_PR8.json)")
		list      = fs.Bool("list", false, "list preset scenarios and exit")
		validate  = fs.Bool("validate", false, "validate the spec/scenario, print the resolved spec JSON, and exit")
		strict    = fs.Bool("strict", false, "exit nonzero when any scenario misses its SLO")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request client timeout")
		maxOut    = fs.Int("max-outstanding", 256, "max concurrently outstanding open-loop requests")
		logLevel  = fs.String("log-level", "info", "log level: debug | info | warn | error")
		logFormat = fs.String("log-format", "text", "log format: text | json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat, "simload")
	if err != nil {
		fmt.Fprintln(stderr, "simload:", err)
		return 2
	}

	if *list {
		for _, name := range workload.ScenarioNames() {
			fmt.Fprintf(stdout, "%-18s %s\n", name, workload.ScenarioDescription(name))
		}
		return 0
	}

	specs, err := resolveSpecs(*scenario, *specPath, *duration, *seed, *rateScale)
	if err != nil {
		logger.Error("resolving workload", "error", err.Error())
		return 2
	}

	if *validate {
		for _, spec := range specs {
			raw, err := json.MarshalIndent(spec, "", "  ")
			if err != nil {
				logger.Error("marshaling spec", "error", err.Error())
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", raw)
		}
		return 0
	}

	if *target == "" {
		logger.Error("-target is required (or use -list / -validate)")
		return 2
	}

	// SIGINT/SIGTERM stop the run cleanly: partial results are still
	// scored and written, which is what you want from a cancelled soak.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bench := benchFile{
		GeneratedBy: "simload",
		Target:      *target,
		Pass:        true,
	}
	for _, spec := range specs {
		logger.Info("scenario start",
			"scenario", spec.Name,
			"seed", spec.Seed,
			"duration", time.Duration(spec.Duration).String())
		rep, err := workload.Run(ctx, spec, workload.RunOptions{
			Target:         *target,
			Timeout:        *timeout,
			MaxOutstanding: *maxOut,
		})
		if err != nil {
			logger.Error("scenario failed", "scenario", spec.Name, "error", err.Error())
			return 1
		}
		rep.WriteSummary(stdout)
		bench.Scenarios = append(bench.Scenarios, rep)
		if !rep.SLO.Pass {
			bench.Pass = false
		}
		if ctx.Err() != nil {
			logger.Warn("interrupted; scoring what completed")
			break
		}
	}

	if *out != "" {
		raw, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			logger.Error("marshaling bench file", "error", err.Error())
			return 1
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			logger.Error("writing bench file", "error", err.Error())
			return 1
		}
		logger.Info("wrote bench file", "path", *out, "scenarios", len(bench.Scenarios))
	}

	if *strict && !bench.Pass {
		return 3
	}
	return 0
}

// resolveSpecs turns the -scenario / -spec selection into validated specs
// with the overrides applied.
func resolveSpecs(scenario, specPath string, d time.Duration, seed uint64, rateScale float64) ([]*workload.Spec, error) {
	switch {
	case scenario != "" && specPath != "":
		return nil, fmt.Errorf("-scenario and -spec are mutually exclusive")
	case scenario == "" && specPath == "":
		return nil, fmt.Errorf(`choose traffic with -scenario <name|all> or -spec <file> (see -list)`)
	}

	if specPath != "" {
		spec, err := workload.LoadSpec(specPath)
		if err != nil {
			return nil, err
		}
		if seed != 0 {
			spec.Seed = seed
		}
		if d > 0 {
			spec.Duration = workload.Duration(d)
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return []*workload.Spec{spec}, nil
	}

	names := workload.ScenarioNames()
	if scenario != "all" {
		names = strings.Split(scenario, ",")
	}
	specs := make([]*workload.Spec, 0, len(names))
	for _, name := range names {
		spec, err := workload.Scenario(strings.TrimSpace(name), d, seed, rateScale)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
