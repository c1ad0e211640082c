package core

import (
	"context"
	"fmt"
	"time"

	"github.com/simrank/simpush/internal/graph"
	"github.com/simrank/simpush/internal/rnd"
	"github.com/simrank/simpush/internal/walk"
)

// walkerSeedMix decorrelates the walk stream from other consumers of the
// same user-visible seed.
const walkerSeedMix = 0x51a97c15deadbeef

// SimPush answers approximate single-source SimRank queries on a fixed
// graph with no precomputation (Algorithm 1 of the paper).
//
// A SimPush engine owns reusable query scratch and is therefore not safe
// for concurrent queries; create one engine per goroutine (construction is
// cheap — there is no index).
type SimPush struct {
	g   *graph.Graph
	opt Options
	p   params

	walker  *walk.Walker
	counter *walk.LevelCounter

	// hScratch accumulates hitting probabilities for the level currently
	// being pushed into; reset via the touched list after compression.
	hScratch []float64
	hTouched []int32
	// slots[l][v] is v's index within level l of G_u, or -1.
	slots [][]int32

	// Algorithm 3 scratch: dense accumulator over attention indices.
	attScratch []float64
	attTouched []int32

	// Algorithm 4 scratch: ρ values over attention indices.
	gamma gammaScratch

	// Algorithm 5 scratch: residues for the current and next level.
	rCur, rNxt             []float64
	curTouched, nxtTouched []int32
}

// ventry is one sparse-vector entry: hitting probability from the holding
// (level, node) to the attention node with index a.
type ventry struct {
	a int32
	v float64
}

// level holds the nodes of one level of the source graph G_u together with
// their exact hitting probabilities h^(ℓ)(u, ·) from the query node.
type level struct {
	nodes []int32
	h     []float64
}

// attNode is one attention node (Definition 3): a (level, node) pair with
// h^(ℓ)(u, node) ≥ ε_h.
type attNode struct {
	level int32
	node  int32
	slot  int32 // index within its level
	h     float64
	gamma float64
}

// queryState carries all per-query intermediate structures, including the
// effective options and derived parameters of this query (the engine values
// merged with any QueryOpts overrides).
type queryState struct {
	u          int32
	opt        Options
	p          params
	L          int
	levels     []level
	att        []attNode
	attByLevel [][]int32 // attention indices per level (1..L)
	vecs       [][][]ventry
	tWalkDone  time.Time // walk-sampling → push boundary, for Durations
}

// AttentionInfo describes one attention node of a query, for diagnostics
// and for the paper's in-text statistics (avg L, |A_u|).
type AttentionInfo struct {
	Level int
	Node  int32
	H     float64 // h^(ℓ)(u, Node)
	Gamma float64 // γ^(ℓ)(Node)
}

// StageDurations reports per-stage wall time of one query: the √c-walk
// level-detection sample (Algorithm 2 lines 1-8), the Source-Push
// frontier expansion (rest of Algorithm 2), the last-meeting γ
// correction (Algorithms 3-4), and the Reverse-Push accumulation
// (Algorithm 5). Timestamps come from Options.Clock.
type StageDurations struct {
	Walk        time.Duration
	SourcePush  time.Duration
	Gamma       time.Duration
	ReversePush time.Duration
}

// Result is the answer to a single-source SimRank query.
type Result struct {
	// Scores[v] estimates s(u, v); Scores[u] == 1.
	Scores []float64
	// L is the detected max level of the source graph.
	L int
	// Walks is the number of √c-walks sampled for level detection.
	Walks int
	// SourceGraphSize is the total number of (level, node) entries in G_u.
	SourceGraphSize int
	// Attention lists all attention nodes with their γ values.
	Attention []AttentionInfo
	// Durations breaks the query into the three algorithm stages.
	Durations StageDurations
}

// New constructs a SimPush engine for g. It performs no preprocessing
// beyond allocating O(n) scratch.
func New(g *graph.Graph, opt Options) (*SimPush, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	p := deriveParams(opt)
	sp := &SimPush{
		g:       g,
		opt:     opt,
		p:       p,
		walker:  walk.NewWalker(g, opt.C, rnd.New(opt.Seed^walkerSeedMix)),
		counter: walk.NewLevelCounter(g.N()),
	}
	sp.hScratch = make([]float64, g.N())
	return sp, nil
}

// Rebind points the engine at a new graph snapshot in place, reusing the
// existing walk and push scratch instead of reconstructing the engine.
// When the node count is unchanged nothing is allocated at all; when the
// graph grew, each scratch array is extended (appended entries carry the
// clean-state sentinel, so the between-queries invariants hold); when it
// shrank, the larger arrays are kept. The walker's random stream continues
// uninterrupted, so a single-goroutine query sequence across rebinds is
// deterministic in (snapshot sequence, options, seed).
//
// Rebind must not run concurrently with a query on the same engine; like
// queries themselves, it requires exclusive ownership of the engine.
func (sp *SimPush) Rebind(g *graph.Graph) {
	if g == sp.g {
		return
	}
	sp.g = g
	sp.walker.Rebind(g)
	sp.counter.Grow(g.N())
	n := int(g.N())
	if n > len(sp.hScratch) {
		sp.hScratch = append(sp.hScratch, make([]float64, n-len(sp.hScratch))...)
	}
	for l, s := range sp.slots {
		if len(s) >= n {
			continue
		}
		grown := append(s, make([]int32, n-len(s))...)
		for i := len(s); i < n; i++ {
			grown[i] = -1
		}
		sp.slots[l] = grown
	}
	// rCur/rNxt need no handling here: reversePush sizes them lazily
	// against the bound graph on every query.
}

// Options returns the engine's effective (defaulted) options.
func (sp *SimPush) Options() Options {
	return sp.opt
}

// Epsilon returns the effective error parameter.
func (sp *SimPush) Epsilon() float64 {
	return sp.p.eps
}

// Graph returns the underlying graph.
func (sp *SimPush) Graph() *graph.Graph {
	return sp.g
}

// MemoryBytes estimates the engine's persistent scratch footprint (the
// graph itself is excluded; there is no index), including the walk
// counter's per-level arrays.
func (sp *SimPush) MemoryBytes() int64 {
	b := sp.counter.MemoryBytes()
	b += int64(len(sp.hScratch)) * 8
	for _, s := range sp.slots {
		b += int64(len(s)) * 4
	}
	b += int64(len(sp.rCur)+len(sp.rNxt)) * 8
	b += int64(len(sp.attScratch)) * 8
	b += sp.gamma.memoryBytes()
	return b
}

// Query computes s̃(u, v) for every v (Algorithm 1) with the engine's
// configured options and no cancellation.
func (sp *SimPush) Query(u int32) (*Result, error) {
	return sp.QueryCtx(context.Background(), u, QueryOpts{})
}

// gammaCtxStride is how many Algorithm 4 invocations run between two
// cancellation checks during the γ stage.
const gammaCtxStride = 64

// QueryCtx computes s̃(u, v) for every v (Algorithm 1), honoring ctx and
// per-query parameter overrides. Cancellation is observed at stage
// boundaries and inside each stage — between walk batches of level
// detection, between Source-Push levels, between γ computations, and
// between Reverse-Push level sweeps — so an expired deadline interrupts
// the query mid-flight rather than after the fact. The returned error is
// ctx.Err() itself, compatible with errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded). An interrupted query leaves
// the engine scratch clean; the engine remains usable.
func (sp *SimPush) QueryCtx(ctx context.Context, u int32, qo QueryOpts) (*Result, error) {
	if !sp.g.HasNode(u) {
		return nil, fmt.Errorf("core: %w: query node %d not in [0, %d)", ErrNodeOutOfRange, u, sp.g.N())
	}
	opt, p := sp.opt, sp.p
	if !qo.IsZero() {
		opt = opt.merge(qo)
		if err := opt.validate(); err != nil {
			return nil, err
		}
		p = deriveParams(opt)
		if qo.HasSeed {
			// Seed a bounded scope: the engine's own stream resumes
			// untouched afterwards, so a seeded query never perturbs (or
			// correlates) the walk streams of later unseeded queries.
			restore := sp.walker.PushSeed(opt.Seed ^ walkerSeedMix)
			defer restore()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qs := &queryState{u: u, opt: opt, p: p}
	clk := sp.opt.clock()

	t0 := clk.Now()
	if err := sp.sourcePush(ctx, qs); err != nil { // Algorithm 2
		sp.resetSlots(qs)
		return nil, err
	}
	t1 := clk.Now()

	if opt.DisableGamma {
		for i := range qs.att {
			qs.att[i].gamma = 1
		}
	} else {
		if err := sp.computeHittingVecs(ctx, qs); err != nil { // Algorithm 3
			sp.resetSlots(qs)
			return nil, err
		}
		if err := sp.computeGammas(ctx, qs); err != nil { // Algorithm 4
			sp.resetSlots(qs)
			return nil, err
		}
	}
	t2 := clk.Now()

	scores := make([]float64, sp.g.N())
	if err := sp.reversePush(ctx, qs, scores); err != nil { // Algorithm 5
		sp.resetSlots(qs)
		return nil, err
	}
	t3 := clk.Now()

	res := &Result{
		Scores: scores,
		L:      qs.L,
		Walks:  p.nWalks,
		Durations: StageDurations{
			Walk:        qs.tWalkDone.Sub(t0),
			SourcePush:  t1.Sub(qs.tWalkDone),
			Gamma:       t2.Sub(t1),
			ReversePush: t3.Sub(t2),
		},
	}
	for _, lv := range qs.levels {
		res.SourceGraphSize += len(lv.nodes)
	}
	res.Attention = make([]AttentionInfo, len(qs.att))
	for i, a := range qs.att {
		res.Attention[i] = AttentionInfo{Level: int(a.level), Node: a.node, H: a.h, Gamma: a.gamma}
	}

	sp.resetSlots(qs)
	return res, nil
}

// resetSlots restores the -1 sentinel for every slot the query touched.
func (sp *SimPush) resetSlots(qs *queryState) {
	for l, lv := range qs.levels {
		s := sp.slots[l]
		for _, v := range lv.nodes {
			s[v] = -1
		}
	}
}

// slotLevel returns the slot array for level l, growing lazily.
func (sp *SimPush) slotLevel(l int) []int32 {
	for len(sp.slots) <= l {
		s := make([]int32, sp.g.N())
		for i := range s {
			s[i] = -1
		}
		sp.slots = append(sp.slots, s)
	}
	return sp.slots[l]
}
