package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/simrank/simpush/internal/core"
	"github.com/simrank/simpush/internal/gen"
	"github.com/simrank/simpush/internal/graph"
)

// writeRows emits harness rows as a TSV block with the named metric pair —
// one line per (method, setting), grouped per dataset, mirroring one panel
// of a paper figure.
func writeRows(w io.Writer, rows []Row, xName, yName string, x, y func(Row) string) {
	fmt.Fprintf(w, "dataset\tmethod\tsetting\t%s\t%s\tnote\n", xName, yName)
	sorted := append([]Row(nil), rows...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Dataset != sorted[b].Dataset {
			return sorted[a].Dataset < sorted[b].Dataset
		}
		if sorted[a].Method != sorted[b].Method {
			return sorted[a].Method < sorted[b].Method
		}
		return sorted[a].Rank < sorted[b].Rank
	})
	for _, r := range sorted {
		if r.Excluded {
			fmt.Fprintf(w, "%s\t%s\t%s\t-\t-\texcluded: %s\n", r.Dataset, r.Method, r.Setting, r.Reason)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t\n", r.Dataset, r.Method, r.Setting, x(r), y(r))
	}
}

// Figure4 reproduces "Average error vs. query time" (paper Figure 4):
// AvgError@50 on the x-axis, per-query seconds on the y-axis, five points
// per method per dataset.
func Figure4(w io.Writer, opt Options, datasets []gen.Dataset) error {
	fmt.Fprintln(w, "== Figure 4: AvgError@50 vs query time ==")
	for _, ds := range datasets {
		rows, err := RunDataset(opt, ds)
		if err != nil {
			return err
		}
		writeRows(w, rows, "avg_error@50", "query_time_s",
			func(r Row) string { return fmt.Sprintf("%.6f", r.AvgErrK) },
			func(r Row) string { return fmt.Sprintf("%.6f", r.QueryTime.Seconds()) })
	}
	return nil
}

// Figure5 reproduces "Precision vs. query time" (paper Figure 5).
func Figure5(w io.Writer, opt Options, datasets []gen.Dataset) error {
	fmt.Fprintln(w, "== Figure 5: Precision@50 vs query time ==")
	for _, ds := range datasets {
		rows, err := RunDataset(opt, ds)
		if err != nil {
			return err
		}
		writeRows(w, rows, "precision@50", "query_time_s",
			func(r Row) string { return fmt.Sprintf("%.4f", r.PrecK) },
			func(r Row) string { return fmt.Sprintf("%.6f", r.QueryTime.Seconds()) })
	}
	return nil
}

// Figure6 reproduces "Average error vs. peak memory usage" (paper
// Figure 6): AvgError@50 vs graph+index memory in GB.
func Figure6(w io.Writer, opt Options, datasets []gen.Dataset) error {
	fmt.Fprintln(w, "== Figure 6: AvgError@50 vs peak memory ==")
	for _, ds := range datasets {
		rows, err := RunDataset(opt, ds)
		if err != nil {
			return err
		}
		writeRows(w, rows, "avg_error@50", "memory_gb",
			func(r Row) string { return fmt.Sprintf("%.6f", r.AvgErrK) },
			func(r Row) string { return fmt.Sprintf("%.4f", float64(r.Memory)/(1<<30)) })
	}
	return nil
}

// Figures456 runs the sweep once per dataset and emits the three metric
// views of Figures 4, 5 and 6 from the same rows. RunDataset dominates the
// cost, so this is ~3x cheaper than running the figures separately; it is
// what cmd/simbench -exp figs runs.
func Figures456(w io.Writer, opt Options, datasets []gen.Dataset) error {
	for _, ds := range datasets {
		rows, err := RunDataset(opt, ds)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure 4 panel (%s): AvgError@50 vs query time ==\n", ds.Name)
		writeRows(w, rows, "avg_error@50", "query_time_s",
			func(r Row) string { return fmt.Sprintf("%.6f", r.AvgErrK) },
			func(r Row) string { return fmt.Sprintf("%.6f", r.QueryTime.Seconds()) })
		fmt.Fprintf(w, "== Figure 5 panel (%s): Precision@50 vs query time ==\n", ds.Name)
		writeRows(w, rows, "precision@50", "query_time_s",
			func(r Row) string { return fmt.Sprintf("%.4f", r.PrecK) },
			func(r Row) string { return fmt.Sprintf("%.6f", r.QueryTime.Seconds()) })
		fmt.Fprintf(w, "== Figure 6 panel (%s): AvgError@50 vs peak memory ==\n", ds.Name)
		writeRows(w, rows, "avg_error@50", "memory_gb",
			func(r Row) string { return fmt.Sprintf("%.6f", r.AvgErrK) },
			func(r Row) string { return fmt.Sprintf("%.4f", float64(r.Memory)/(1<<30)) })
		fmt.Fprintf(w, "== build times (%s) ==\n", ds.Name)
		writeRows(w, rows, "build_s", "query_time_s",
			func(r Row) string { return fmt.Sprintf("%.3f", r.BuildTime.Seconds()) },
			func(r Row) string { return fmt.Sprintf("%.6f", r.QueryTime.Seconds()) })
	}
	return nil
}

// Figure7 reproduces the billion-node ClueWeb evaluation (paper Figure 7)
// on the clueweb-sim stand-in. As in the paper, only SimPush, PRSim and
// ProbeSim run — the other four methods exceed the memory budget at this
// scale (our harness enforces that with a deliberately low index cap).
func Figure7(w io.Writer, opt Options) error {
	opt.Fill()
	fmt.Fprintln(w, "== Figure 7: clueweb-sim (largest stand-in) ==")
	opt.Methods = []string{"SimPush", "PRSim", "ProbeSim"}
	ds, err := gen.ByName("clueweb-sim")
	if err != nil {
		return err
	}
	rows, err := RunDataset(opt, ds)
	if err != nil {
		return err
	}
	writeRows(w, rows, "avg_error@50", "query_time_s",
		func(r Row) string { return fmt.Sprintf("%.6f", r.AvgErrK) },
		func(r Row) string { return fmt.Sprintf("%.6f", r.QueryTime.Seconds()) })
	writeRows(w, rows, "precision@50", "query_time_s",
		func(r Row) string { return fmt.Sprintf("%.4f", r.PrecK) },
		func(r Row) string { return fmt.Sprintf("%.6f", r.QueryTime.Seconds()) })
	writeRows(w, rows, "avg_error@50", "memory_gb",
		func(r Row) string { return fmt.Sprintf("%.6f", r.AvgErrK) },
		func(r Row) string { return fmt.Sprintf("%.4f", float64(r.Memory)/(1<<30)) })
	return nil
}

// Table4 reproduces the dataset-statistics table (paper Table 4) for the
// nine synthetic stand-ins.
func Table4(w io.Writer, opt Options) error {
	opt.Fill()
	fmt.Fprintln(w, "== Table 4: datasets ==")
	fmt.Fprintln(w, "name\tn\tm\ttype\tavg_deg\tmax_in_deg\talpha\tstands_for")
	for _, ds := range gen.Roster {
		g, err := ds.Generate(opt.Scale)
		if err != nil {
			return err
		}
		s := graph.ComputeStats(g)
		kind := "directed"
		if s.Symmetric {
			kind = "undirected"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%.1f\t%d\t%.2f\t%s\n",
			ds.Name, s.N, s.M, kind, s.AvgInDeg, s.MaxInDeg, s.PowerLawAlpha, ds.PaperRef)
	}
	return nil
}

// LevelStats reproduces the in-text statistics of §5.2: the average max
// level L of the source graph and the average number of attention nodes
// at ε = 0.02 (the paper reports e.g. L=2.76 on Twitter, L=9.0 on DBLP,
// and attention counts in the dozens to hundreds).
func LevelStats(w io.Writer, opt Options, datasets []gen.Dataset) error {
	opt.Fill()
	fmt.Fprintln(w, "== Level statistics (SimPush, eps=0.02) ==")
	fmt.Fprintln(w, "dataset\tavg_L\tavg_attention\tavg_source_graph_nodes\tavg_query_s")
	for _, ds := range datasets {
		g, err := ds.Generate(opt.Scale)
		if err != nil {
			return err
		}
		sp, err := core.New(g, core.Options{Epsilon: 0.02, Seed: opt.Seed})
		if err != nil {
			return err
		}
		queries := PickQueries(g, opt.Queries, opt.Seed)
		var sumL, sumAtt, sumGu, sumT float64
		for _, u := range queries {
			t0 := time.Now()
			res, err := sp.Query(u)
			if err != nil {
				return err
			}
			sumT += time.Since(t0).Seconds()
			sumL += float64(res.L)
			sumAtt += float64(len(res.Attention))
			sumGu += float64(res.SourceGraphSize)
		}
		q := float64(len(queries))
		fmt.Fprintf(w, "%s\t%.2f\t%.1f\t%.1f\t%.4f\n", ds.Name, sumL/q, sumAtt/q, sumGu/q, sumT/q)
	}
	return nil
}
