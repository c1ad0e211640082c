// Command simstat prints structural statistics of a graph file: size,
// degree distribution, directedness, dangling nodes, power-law tail fit,
// and connectivity — the properties that determine SimRank algorithm
// behaviour (the dataset stand-ins in internal/gen are tuned on them).
//
// Usage:
//
//	simstat -graph web.txt
//	simstat -graph web.spg -binary
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	simpush "github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/graph"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "edge-list graph file (required)")
		binary     = flag.Bool("binary", false, "graph file is in simgen binary format")
		undirected = flag.Bool("undirected", false, "treat edges as undirected")
		remap      = flag.Bool("remap", false, "remap sparse 64-bit node ids to dense ids")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *graphPath, *binary, *undirected, *remap); err != nil {
		fmt.Fprintln(os.Stderr, "simstat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, path string, binary, undirected, remap bool) error {
	var g *simpush.Graph
	var err error
	switch {
	case binary:
		g, err = graph.LoadBinaryFile(path)
	case remap:
		var mapping *graph.Remapping
		g, mapping, err = graph.LoadEdgeListFileRemapped(path, graph.BuildOptions{Undirected: undirected})
		if err == nil {
			fmt.Fprintf(w, "remapped %d external ids to dense range\n", mapping.Len())
		}
	default:
		g, err = simpush.LoadEdgeList(path, undirected)
	}
	if err != nil {
		return err
	}
	s := simpush.Stats(g)
	kind := "directed"
	if s.Symmetric {
		kind = "undirected"
	}
	fmt.Fprintf(w, "nodes:              %d\n", s.N)
	fmt.Fprintf(w, "edges:              %d (%s)\n", s.M, kind)
	fmt.Fprintf(w, "avg degree:         %.2f\n", s.AvgInDeg)
	fmt.Fprintf(w, "median in-degree:   %d\n", s.MedianInDeg)
	fmt.Fprintf(w, "max in/out degree:  %d / %d\n", s.MaxInDeg, s.MaxOutDeg)
	fmt.Fprintf(w, "dangling in/out:    %d / %d\n", s.DanglingIn, s.DanglingOut)
	fmt.Fprintf(w, "in-degree gini:     %.3f\n", s.GiniInDegree)
	fmt.Fprintf(w, "power-law alpha:    %.2f\n", s.PowerLawAlpha)
	fmt.Fprintf(w, "largest weak comp.: %d (%.1f%% of nodes)\n",
		simpush.LargestComponent(g), 100*float64(simpush.LargestComponent(g))/float64(max32(s.N, 1)))
	fmt.Fprintf(w, "graph memory:       %.1f MB\n", float64(g.MemoryBytes())/(1<<20))
	return nil
}

func max32(v int32, lo int32) int32 {
	if v < lo {
		return lo
	}
	return v
}
