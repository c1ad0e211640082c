// Package simpush is a realtime, index-free single-source SimRank library
// for web-scale graphs — a Go implementation of
//
//	Jieming Shi, Tianyuan Jin, Renchi Yang, Xiaokui Xiao, Yin Yang:
//	"Realtime Index-Free Single Source SimRank Processing on Web-Scale
//	Graphs", PVLDB 13, 2020 (arXiv:2002.08082).
//
// Given a query node u, a single-source SimRank query estimates the
// SimRank similarity s(u, v) for every node v with an absolute error
// guarantee ε that holds with probability 1−δ — with no precomputation,
// so graphs can change between queries at zero maintenance cost.
//
// The entry point is Client, which is safe for concurrent use by any
// number of goroutines (it pools per-worker engines internally) and whose
// query methods take a context.Context and per-query options:
//
//	g, _ := simpush.LoadEdgeList("graph.txt", false)
//	c, _ := simpush.NewClient(g, simpush.Options{Epsilon: 0.02})
//	res, _ := c.SingleSource(ctx, 42)
//	top, _ := c.TopK(ctx, 42, 10, simpush.WithEpsilon(0.005))
//
// A Client is bound to a GraphSource rather than one frozen graph. A
// static *Graph is a source, and so is the mutable, versioned
// *DynamicGraph — hand one to NewClient and every query automatically
// observes the newest committed edges, with engines rebound in place (no
// snapshot-and-rebuild orchestration). Client.View pins one epoch when a
// multi-call workflow needs a consistent state:
//
//	d := simpush.NewDynamicGraph(0, 0)
//	c, _ := simpush.NewClient(d, simpush.Options{})
//	d.AddEdge(0, 1)
//	res, _ := c.SingleSource(ctx, 0)  // sees the new edge
//	v, _ := c.View(ctx)               // pinned epoch for consistent reads
//
// Deadlines interrupt queries mid-stage (ctx.Err() is returned), and
// validation failures wrap the sentinel errors ErrNodeOutOfRange and
// ErrInvalidOptions for errors.Is classification. The v1 Engine API and
// the top-level BatchSingleSource have been removed; README.md's
// migration table maps each old call to its Client equivalent.
//
// Besides SimPush itself, the library ships faithful implementations of
// the six baselines the paper evaluates against (ProbeSim, PRSim, SLING,
// READS, TSF, TopSim) behind a common Method interface, exact and
// Monte-Carlo oracles, synthetic dataset generators, and the complete
// benchmark harness reproducing every table and figure of the paper
// (see cmd/simbench and internal/bench).
package simpush

import (
	"fmt"
	"sort"

	"github.com/simrank/simpush/internal/core"
	"github.com/simrank/simpush/internal/engine"
	"github.com/simrank/simpush/internal/eval"
	"github.com/simrank/simpush/internal/exact"
	"github.com/simrank/simpush/internal/gen"
	"github.com/simrank/simpush/internal/graph"
	"github.com/simrank/simpush/internal/mc"
)

// Graph is a directed graph in dual-CSR form (out- and in-adjacency).
// Build one with LoadEdgeList, FromEdges or the synthetic generators.
type Graph = graph.Graph

// Options configures a SimPush client: decay factor C (default 0.6),
// error bound Epsilon (default 0.02), failure probability Delta
// (default 1e-4) and the level-detection mode. Per-query deviations are
// expressed with QueryOption values instead of new clients.
type Options = core.Options

// Result is a single-source answer: Scores[v] ≈ s(u, v), plus the source
// graph diagnostics (max level L, attention nodes, stage timings).
type Result = core.Result

// AttentionInfo describes one attention node of a query.
type AttentionInfo = core.AttentionInfo

// StageDurations breaks a query into the four timed engine stages
// (walk sampling, source-push, γ, reverse-push).
type StageDurations = core.StageDurations

// Clock supplies the stage timestamps behind Result.Durations; set
// Options.Clock to inject one (nil reads the process clock). It is an
// interface, not a func type, so Options stays comparable.
type Clock = core.Clock

// Method is the uniform interface over SimPush and the six baselines:
// Build (preprocessing, if any) then Query. Use NewMethod to construct
// baselines for comparison studies.
type Method = engine.Engine

// Ranked is one entry of a top-k result.
type Ranked struct {
	Node  int32
	Score float64
}

// LoadEdgeList reads a whitespace-separated "from to" edge list file
// ('#'/'%' comment lines are skipped). If undirected is true every edge is
// symmetrized, following the paper's convention.
func LoadEdgeList(path string, undirected bool) (*Graph, error) {
	return graph.LoadEdgeListFile(path, graph.BuildOptions{Undirected: undirected})
}

// FromEdges builds a graph from parallel from/to slices.
func FromEdges(from, to []int32, undirected bool) (*Graph, error) {
	return graph.FromEdgeList(from, to, graph.BuildOptions{Undirected: undirected})
}

// TopK returns the k highest-scoring nodes of a score vector, excluding
// `exclude` (pass a negative value to exclude nothing). k is clamped to
// the candidate count; k <= 0 yields an empty result.
func TopK(scores []float64, k int, exclude int32) []Ranked {
	ids := eval.TopK(scores, k, exclude)
	return rankedFrom(scores, ids, k)
}

// Baselines lists the six baseline method names accepted by NewMethod,
// in the paper's legend order, plus "SimPush" itself.
func Baselines() []string {
	return append([]string(nil), engine.MethodNames...)
}

// NewMethod constructs any of the seven methods by name at one of the
// paper's five parameter settings (rank 0 = coarsest/fastest … rank 4 =
// finest/slowest). Index-based methods must be Built before querying.
func NewMethod(name string, g *Graph, rank int, seed uint64) (Method, error) {
	if rank < 0 || rank > 4 {
		return nil, fmt.Errorf("simpush: %w: setting rank %d out of range [0,4]", ErrInvalidOptions, rank)
	}
	cfgs, err := engine.Sweep(name, engine.Caps{})
	if err != nil {
		return nil, err
	}
	return cfgs[rank].Make(g, seed)
}

// ExactSingleSource computes the exact SimRank row of u with the power
// method. Θ(n²) memory: intended for validation on graphs up to a few
// thousand nodes.
func ExactSingleSource(g *Graph, u int32, c float64) ([]float64, error) {
	return exact.SingleSource(g, u, exact.Options{C: c})
}

// MonteCarloPair estimates s(u, v) by sampling paired √c-walks — the
// unbiased ground-truth estimator of the paper's evaluation protocol.
func MonteCarloPair(g *Graph, u, v int32, c float64, samples int, seed uint64) float64 {
	return mc.New(g, c).PairParallel(u, v, samples, seed)
}

// SyntheticWebGraph generates a power-law web graph (Kumar et al. copying
// model) with roughly avgDeg out-links per page.
func SyntheticWebGraph(n int32, avgDeg int, seed uint64) (*Graph, error) {
	return gen.CopyingModel(n, avgDeg, 0.3, seed)
}

// SyntheticSocialGraph generates a directed follower network with heavy
// in-degree tails (preferential attachment).
func SyntheticSocialGraph(n int32, avgDeg int, seed uint64) (*Graph, error) {
	return gen.PreferentialAttachment(n, avgDeg, 0.85, seed)
}

// Dataset generates one of the nine named dataset stand-ins used by the
// benchmark suite (see internal/gen); scale 1.0 is the default size.
func Dataset(name string, scale float64) (*Graph, error) {
	ds, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	return ds.Generate(scale)
}

// DatasetNames lists the nine dataset stand-ins in Table 4 order.
func DatasetNames() []string {
	names := make([]string, len(gen.Roster))
	for i, d := range gen.Roster {
		names[i] = d.Name
	}
	return names
}

// GraphStats summarizes structural properties of a graph: size, degree
// distribution, directedness, dangling nodes, and a power-law tail fit.
type GraphStats = graph.Stats

// Stats computes GraphStats for g.
func Stats(g *Graph) GraphStats {
	return graph.ComputeStats(g)
}

// LargestComponent returns the node count of g's largest weakly connected
// component. Query nodes outside it have near-empty similarity rows.
func LargestComponent(g *Graph) int64 {
	return graph.LargestComponent(g)
}

// SortRankedStable orders a Ranked slice by descending score with node id
// tie-breaks; convenience for presenting merged result sets.
func SortRankedStable(rs []Ranked) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Node < rs[j].Node
	})
}
