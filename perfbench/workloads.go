package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"github.com/simrank/simpush"
)

// Request kinds. The first three are reads, the last two edge writes.
const (
	kindTopK   = "topk"
	kindSingle = "single-source"
	kindPair   = "pair"
	kindAdd    = "add-edge"
	kindRemove = "remove-edge"
)

// topK is the k every top-k request asks for.
const topK = 10

// request is one generated call against the serving stack. due is its
// scheduled send time from the start of its phase (open loop only).
type request struct {
	kind string
	node int32 // source node, pair's u, or the edge's from
	v    int32 // pair target or the edge's to
	seed uint64
	due  time.Duration
}

func (r request) isWrite() bool { return r.kind == kindAdd || r.kind == kindRemove }

// weighted is one entry of a request mix.
type weighted struct {
	kind   string
	weight float64
}

// workload is one named traffic mix. Exactly one of clients (closed loop)
// and readRate (open-loop reads per second) is set.
type workload struct {
	name       string
	cluster    bool    // simproxy -policy hash over a leader and a follower; else one standalone simrankd
	clients    int     // closed-loop clients
	readRate   float64 // open-loop reads per second
	writeRate  float64 // open-loop edge writes per second, sent to the leader
	reads      []weighted
	writes     []weighted
	popularity string  // "uniform", "hotset" or "zipf"
	hotSet     int     // hot nodes, with popularity "hotset"
	zipfS      float64 // exponent, with popularity "zipf"
	freshSeeds bool    // every read carries its own seed, so no two reads share a cache key
	fillCaches bool    // warm-up first sends every hot key once
	warmup     time.Duration
}

// workloads are the benchmark's traffic mixes; docs in perfbench/README.md.
var workloads = []workload{
	{
		name: "cold-topk", clients: 1,
		reads:      []weighted{{kindTopK, 0.7}, {kindSingle, 0.3}},
		popularity: "uniform", freshSeeds: true,
		warmup: 2 * time.Second,
	},
	{
		name: "hot-feed", cluster: true, readRate: 200,
		reads:      []weighted{{kindTopK, 0.8}, {kindSingle, 0.2}},
		popularity: "hotset", hotSet: 48,
		fillCaches: true, warmup: time.Second,
	},
	{
		name: "churn-mixed", cluster: true, readRate: 12, writeRate: 0.5,
		reads:      []weighted{{kindTopK, 0.6}, {kindSingle, 0.25}, {kindPair, 0.15}},
		writes:     []weighted{{kindAdd, 0.8}, {kindRemove, 0.2}},
		popularity: "zipf", zipfS: 1.0,
		warmup: 2 * time.Second,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// generator draws a workload's requests from one seeded stream, so the same
// seed always yields the same inputs.
type generator struct {
	w       workload
	g       *simpush.Graph
	rng     *rand.Rand
	pinned  uint64  // the query seed every read carries unless seeds are fresh
	hot     []int32 // hot set, with popularity "hotset"
	zipfCDF []float64
	zipfMap []int32          // Zipf rank → node
	removed map[[2]int32]int // original edges already chosen for removal
}

// popularitySeed fixes which nodes are hot and how the Zipf ranks map to
// nodes, and pinnedSeed is the query seed of every read that does not draw
// a fresh one. Both are part of the workload's definition, not of a run:
// the run seed only samples requests from that population, so runs with
// different seeds ask for the same answers, of the same sizes.
const (
	popularitySeed = 0x90b1a7
	pinnedSeed     = 7
)

func newGenerator(w workload, g *simpush.Graph, seed uint64) *generator {
	rng := rand.New(rand.NewPCG(seed, 0x5eedbe7c4))
	gen := &generator{w: w, g: g, rng: rng, pinned: pinnedSeed, removed: map[[2]int32]int{}}
	n := int(g.N())
	pop := rand.New(rand.NewPCG(popularitySeed, 0))
	switch w.popularity {
	case "hotset":
		gen.hot = make([]int32, 0, w.hotSet)
		for _, i := range pop.Perm(n)[:w.hotSet] {
			gen.hot = append(gen.hot, int32(i))
		}
	case "zipf":
		gen.zipfCDF = zipfCDF(n, w.zipfS)
		gen.zipfMap = make([]int32, n)
		for r, i := range pop.Perm(n) {
			gen.zipfMap[r] = int32(i)
		}
	}
	return gen
}

// fork returns a generator over the same hot set, popularity ranking,
// pinned seed and removal ledger that draws from its own stream, so a
// warm-up of any length leaves the timed inputs unchanged.
func (gen *generator) fork(stream uint64) *generator {
	f := *gen
	f.rng = rand.New(rand.NewPCG(stream, 0xf0f0))
	return &f
}

// zipfCDF returns the cumulative distribution of ranks 0..n-1 with weight
// 1/(rank+1)^s, normalised to end at 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

func (gen *generator) pick(mix []weighted) string {
	x := gen.rng.Float64()
	for _, m := range mix {
		if x < m.weight {
			return m.kind
		}
		x -= m.weight
	}
	return mix[len(mix)-1].kind
}

func (gen *generator) node() int32 {
	switch gen.w.popularity {
	case "hotset":
		return gen.hot[gen.rng.IntN(len(gen.hot))]
	case "zipf":
		r := sort.SearchFloat64s(gen.zipfCDF, gen.rng.Float64())
		return gen.zipfMap[min(r, len(gen.zipfMap)-1)]
	default:
		return int32(gen.rng.IntN(int(gen.g.N())))
	}
}

// read draws one read request.
func (gen *generator) read() request {
	r := request{kind: gen.pick(gen.w.reads), node: gen.node(), seed: gen.pinned}
	if gen.w.freshSeeds {
		r.seed = gen.rng.Uint64() >> 1
	}
	if r.kind == kindPair {
		r.v = int32(gen.rng.IntN(int(gen.g.N())))
	}
	return r
}

// write draws one edge write: an insertion between two distinct uniform
// nodes, or the removal of an edge of the served graph that no earlier
// write of the run removed, so every write is valid.
func (gen *generator) write() request {
	n := int(gen.g.N())
	if gen.pick(gen.w.writes) == kindAdd {
		u := int32(gen.rng.IntN(n))
		v := int32(gen.rng.IntN(n - 1))
		if v >= u {
			v++
		}
		return request{kind: kindAdd, node: u, v: v}
	}
	for {
		u := int32(gen.rng.IntN(n))
		out := gen.g.Out(u)
		if len(out) == 0 {
			continue
		}
		e := [2]int32{u, out[gen.rng.IntN(len(out))]}
		have := 0
		for _, t := range out {
			if t == e[1] {
				have++
			}
		}
		if gen.removed[e] >= have {
			continue
		}
		gen.removed[e]++
		return request{kind: kindRemove, node: e[0], v: e[1]}
	}
}

// openSchedule draws the open-loop schedule over d. Reads are rate×d
// requests at uniform random times: a Poisson process conditioned on its
// count, so runs differ in when reads arrive but not in how many, and a
// run's throughput measures the stack rather than the draw. Writes come
// one per 1/rate slot at a random point of the slot's middle half, like a
// feed applying updates at a steady pace: commits never pile up on each
// other, so the read tail measures reads beside a commit, not a burst of
// commits that a seed happened to draw.
func (gen *generator) openSchedule(d time.Duration) []request {
	var out []request
	for i := 0; i < int(math.Round(gen.w.readRate*d.Seconds())); i++ {
		req := gen.read()
		req.due = time.Duration(gen.rng.Int64N(int64(d)))
		out = append(out, req)
	}
	if gen.w.writeRate > 0 {
		slot := time.Duration(float64(time.Second) / gen.w.writeRate)
		for t := time.Duration(0); t+slot <= d; t += slot {
			req := gen.write()
			req.due = t + slot/4 + time.Duration(gen.rng.Int64N(int64(slot/2)))
			out = append(out, req)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// hotKeys lists every distinct hot-set read (node × read kind), the keys
// a cache warm-up has to fill.
func (gen *generator) hotKeys() []request {
	var out []request
	for _, u := range gen.hot {
		for _, m := range gen.w.reads {
			out = append(out, request{kind: m.kind, node: u, seed: gen.pinned})
		}
	}
	return out
}
