// Command simbench regenerates every table and figure of the SimPush
// paper's evaluation (§5) on the synthetic dataset stand-ins.
//
// Experiments (select with -exp):
//
//	table1    complexity comparison + empirical scaling sweep
//	table4    dataset statistics
//	fig4      AvgError@50 vs query time, 7 methods × 5 settings × 8 graphs
//	fig5      Precision@50 vs query time
//	fig6      AvgError@50 vs peak memory
//	figs      Figures 4+5+6 from a single sweep (3x cheaper)
//	fig7      largest stand-in (clueweb-sim): SimPush vs PRSim vs ProbeSim
//	levels    §5.2 in-text stats: avg L, attention counts
//	ablation  γ on/off and Chernoff-vs-Hoeffding walk sizing
//	all       everything above
//
// Full-scale runs take tens of minutes; use -scale/-queries/-datasets to
// subsample. Output is TSV, one block per figure panel.
//
// Example:
//
//	simbench -exp fig4 -scale 0.25 -queries 5 -datasets in2004-sim,dblp-sim
//
// Load against a running simrankd or simproxy is cmd/simload's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/simrank/simpush/internal/bench"
	"github.com/simrank/simpush/internal/gen"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: table1|table4|fig4|fig5|fig6|fig7|levels|ablation|all")
		scale        = flag.Float64("scale", 1.0, "dataset scale factor")
		queries      = flag.Int("queries", 10, "queries per dataset (paper: 100)")
		k            = flag.Int("k", 50, "top-k for AvgError@k / Precision@k")
		truthSamples = flag.Int("truth", 200000, "MC samples per pooled pair")
		maxIndexGB   = flag.Float64("maxindex", 4, "index memory cap in GB (excluded beyond, like the paper's OOM rule)")
		walkCap      = flag.Int("walkcap", 2_000_000, "per-query walk cap for sampling baselines")
		maxQuery     = flag.Duration("maxquery", 30*time.Second, "per-query time budget (excluded beyond)")
		datasets     = flag.String("datasets", "", "comma-separated dataset filter (default: the paper's eight for figures)")
		methods      = flag.String("methods", "", "comma-separated method filter")
		seed         = flag.Uint64("seed", 0x51e9a7, "random seed")
		verbose      = flag.Bool("v", true, "progress logging to stderr")
	)
	flag.Parse()

	opt := bench.Options{
		Scale:         *scale,
		Queries:       *queries,
		K:             *k,
		TruthSamples:  *truthSamples,
		MaxIndexBytes: int64(*maxIndexGB * float64(1<<30)),
		WalkCap:       *walkCap,
		MaxQueryTime:  *maxQuery,
		Seed:          *seed,
	}
	if *verbose {
		opt.Log = os.Stderr
	}
	if *methods != "" {
		opt.Methods = strings.Split(*methods, ",")
	}

	dss, err := selectDatasets(*datasets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}

	w := os.Stdout
	runErr := func() error {
		switch *exp {
		case "table1":
			return bench.Table1(w, opt)
		case "table4":
			return bench.Table4(w, opt)
		case "fig4":
			return bench.Figure4(w, opt, dss)
		case "fig5":
			return bench.Figure5(w, opt, dss)
		case "fig6":
			return bench.Figure6(w, opt, dss)
		case "figs":
			return bench.Figures456(w, opt, dss)
		case "fig7":
			return bench.Figure7(w, opt)
		case "levels":
			return bench.LevelStats(w, opt, dss)
		case "ablation":
			return bench.Ablations(w, opt, dss)
		case "all":
			if err := bench.Table4(w, opt); err != nil {
				return err
			}
			if err := bench.Table1(w, opt); err != nil {
				return err
			}
			if err := bench.LevelStats(w, opt, dss); err != nil {
				return err
			}
			if err := bench.Figure4(w, opt, dss); err != nil {
				return err
			}
			if err := bench.Figure5(w, opt, dss); err != nil {
				return err
			}
			if err := bench.Figure6(w, opt, dss); err != nil {
				return err
			}
			if err := bench.Figure7(w, opt); err != nil {
				return err
			}
			return bench.Ablations(w, opt, dss)
		default:
			return fmt.Errorf("unknown experiment %q", *exp)
		}
	}()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "simbench:", runErr)
		os.Exit(1)
	}
}

func selectDatasets(filter string) ([]gen.Dataset, error) {
	if filter == "" {
		return gen.SmallEight(), nil
	}
	var out []gen.Dataset
	for _, name := range strings.Split(filter, ",") {
		ds, err := gen.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}
