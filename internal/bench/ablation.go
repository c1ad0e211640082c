package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/simrank/simpush/internal/core"
	"github.com/simrank/simpush/internal/eval"
	"github.com/simrank/simpush/internal/gen"
)

// Ablations quantifies two of SimPush's design choices:
//
//  1. the last-meeting correction γ (Algorithms 3-4) on vs off — without
//     it, repeated meetings are double counted and error rises;
//  2. Chernoff vs paper-literal Hoeffding sizing of the level-detection
//     walk sample — same accuracy, very different walk counts.
func Ablations(w io.Writer, opt Options, datasets []gen.Dataset) error {
	opt.Fill()
	fmt.Fprintln(w, "== Ablation: gamma correction and level-detection sampling ==")
	fmt.Fprintln(w, "dataset\tvariant\tavg_error@50\tprecision@50\tavg_query_s\twalks")
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{Epsilon: 0.02}},
		{"no-gamma", core.Options{Epsilon: 0.02, DisableGamma: true}},
		{"hoeffding-walks", core.Options{Epsilon: 0.02, LevelDetect: core.LevelDetectHoeffding}},
		{"deterministic-L", core.Options{Epsilon: 0.02, LevelDetect: core.LevelDetectDeterministic}},
	}
	for _, ds := range datasets {
		g, err := ds.Generate(opt.Scale)
		if err != nil {
			return err
		}
		queries := PickQueries(g, opt.Queries, opt.Seed)

		type acc struct {
			scores [][]float64
			total  time.Duration
			walks  int
			errK   float64
			prec   float64
		}
		runs := make([]acc, len(variants))
		for vi, v := range variants {
			o := v.opts
			o.Seed = opt.Seed
			o.MaxWalks = opt.WalkCap
			sp, err := core.New(g, o)
			if err != nil {
				return err
			}
			runs[vi].scores = make([][]float64, len(queries))
			for qi, u := range queries {
				t0 := time.Now()
				res, err := sp.Query(u)
				if err != nil {
					return err
				}
				runs[vi].total += time.Since(t0)
				runs[vi].scores[qi] = res.Scores
				runs[vi].walks = res.Walks
			}
		}
		for qi, u := range queries {
			pool := make([][]float64, len(runs))
			for vi := range runs {
				pool[vi] = runs[vi].scores[qi]
			}
			gt := eval.BuildPooledTruth(g, 0.6, u, pool, opt.K, opt.TruthSamples, opt.Seed^uint64(u))
			for vi := range runs {
				runs[vi].errK += eval.AvgErrorAtK(gt, runs[vi].scores[qi])
				runs[vi].prec += eval.PrecisionAtK(gt, runs[vi].scores[qi])
			}
		}
		q := float64(len(queries))
		for vi, v := range variants {
			r := runs[vi]
			fmt.Fprintf(w, "%s\t%s\t%.6f\t%.4f\t%.6f\t%d\n",
				ds.Name, v.name, r.errK/q, r.prec/q,
				(r.total / time.Duration(len(queries))).Seconds(), r.walks)
		}
	}
	return nil
}
