package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/gen"
)

// parallelOptions parameterizes the intra-query speedup experiment.
type parallelOptions struct {
	k       int
	scale   float64
	queries int
	seed    uint64
}

// stNames labels a stageTimes: the four SimPush stages, then the
// end-to-end wall time.
var stNames = [...]string{"walk", "source-push", "gamma", "reverse-push", "end-to-end"}

// stageTimes is one query's per-stage and end-to-end wall time.
type stageTimes [len(stNames)]time.Duration

// runParallelBench reports the serial-vs-parallel speedup of the four
// SimPush stages (from Result.StageDurations) and of the end-to-end query,
// per dataset. Each query runs serially and with k workers under the same
// seed, and the side that runs first alternates from query to query, so
// neither side always inherits the other's warm caches or a core the
// other just freed. Each stage prints the ratio of summed times beside the
// quartiles of the per-query ratios, whose spread shows how far one
// number can be trusted.
func runParallelBench(w io.Writer, datasets []gen.Dataset, opt parallelOptions) error {
	fmt.Fprintf(w, "# intra-query parallelism: serial vs k=%d (%d queries per dataset, order alternating)\n", opt.k, opt.queries)
	fmt.Fprintln(w, "dataset\tstage\tserial_ms\tparallel_ms\tspeedup\tratio_q25\tratio_median\tratio_q75\tratio_n")
	ctx := context.Background()
	for _, ds := range datasets {
		g, err := ds.Generate(opt.scale)
		if err != nil {
			return err
		}
		client, err := simpush.NewClient(g, simpush.Options{Epsilon: 0.02, Seed: opt.seed})
		if err != nil {
			return err
		}
		run := func(u int32, opts ...simpush.QueryOption) (stageTimes, error) {
			t0 := time.Now()
			res, err := client.SingleSource(ctx, u, opts...)
			if err != nil {
				return stageTimes{}, err
			}
			d := res.Durations
			return stageTimes{d.Walk, d.SourcePush, d.Gamma, d.ReversePush, time.Since(t0)}, nil
		}
		var serSum, parSum stageTimes
		var ratios [len(stNames)][]float64
		for i := 0; i < opt.queries; i++ {
			u := int32(uint64(i) * 9973 % uint64(g.N()))
			seedOpt := simpush.WithSeed(opt.seed + uint64(i))
			var ser, par stageTimes
			if i%2 == 0 {
				if ser, err = run(u, seedOpt); err == nil {
					par, err = run(u, seedOpt, simpush.WithParallelism(opt.k))
				}
			} else {
				if par, err = run(u, seedOpt, simpush.WithParallelism(opt.k)); err == nil {
					ser, err = run(u, seedOpt)
				}
			}
			if err != nil {
				client.Close()
				return err
			}
			for st := range ser {
				serSum[st] += ser[st]
				parSum[st] += par[st]
				// A stage that did no work (a trivial L=0 query) has no ratio.
				if ser[st] > 0 && par[st] > 0 {
					ratios[st] = append(ratios[st], float64(ser[st])/float64(par[st]))
				}
			}
		}
		client.Close()
		for st, name := range stNames {
			speedup := 0.0
			if parSum[st] > 0 {
				speedup = float64(serSum[st]) / float64(parSum[st])
			}
			q25, q50, q75 := quartiles(ratios[st])
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\n",
				ds.Name, name,
				float64(serSum[st].Microseconds())/1e3/float64(opt.queries),
				float64(parSum[st].Microseconds())/1e3/float64(opt.queries),
				speedup, q25, q50, q75, len(ratios[st]))
		}
	}
	return nil
}

// quartiles returns the 25th, 50th and 75th percentiles of xs by linear
// interpolation between order statistics (zeros for an empty sample). It
// sorts xs in place.
func quartiles(xs []float64) (q25, q50, q75 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(xs)-1)
		lo := int(pos)
		if lo+1 >= len(xs) {
			return xs[lo]
		}
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
