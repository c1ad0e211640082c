// Package prsim implements PRSim (Wei et al., SIGMOD 2019 [33]), the
// index-based state of the art that SimPush is benchmarked against.
//
// PRSim links SimRank to reverse personalized PageRank: with
// π^(ℓ)(v,w) = (1-√c)·h^(ℓ)(v,w), Eq. 4 of the SimPush paper is exactly
// the SLING decomposition. PRSim's insight is that on power-law graphs
// most of the random-walk mass from any query node concentrates on a small
// set of high in-degree hub nodes, so it precomputes reverse vectors for
// j₀ = √n hubs only and handles the long tail with online backward pushes.
//
// Build:  select j₀ hubs by in-degree; for each hub, backward-push reverse
//
//	hitting lists (threshold ε_a) and estimate η by paired walks.
//
// Query:  sample √c-walks from u to estimate h^(ℓ)(u,w); join hubs against
//
//	the index; for non-hubs run an online backward push whose
//	threshold adapts to the visit frequency (rarely visited nodes
//	get shallow, cheap pushes), and estimate η on the fly.
package prsim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/simrank/simpush/internal/graph"
	"github.com/simrank/simpush/internal/limits"
	"github.com/simrank/simpush/internal/push"
	"github.com/simrank/simpush/internal/rnd"
	"github.com/simrank/simpush/internal/walk"
)

// Params configures PRSim. EpsA is the error knob swept by the paper
// ({0.5, 0.1, 0.05, 0.01, 0.005}); NumHubs defaults to ⌈√n⌉.
type Params struct {
	C       float64
	EpsA    float64
	Delta   float64
	Seed    uint64
	NumHubs int32 // 0 = ⌈√n⌉ (the paper's default j₀)
	// WalkCap caps the per-query walk sample (0 = no cap).
	WalkCap int
	// EtaSamples caps η sampling per hub at build time; default 5000.
	EtaSamples int
	// EtaOnlineSamples is the paired-walk budget for non-hub η at query
	// time; default 200.
	EtaOnlineSamples int
	// MaxIndexBytes aborts Build with limits.ErrIndexTooLarge (0 = off).
	MaxIndexBytes int64
}

func (p *Params) fill() {
	if p.C == 0 {
		p.C = 0.6
	}
	if p.EpsA == 0 {
		p.EpsA = 0.1
	}
	if p.Delta == 0 {
		p.Delta = 1e-4
	}
	if p.EtaSamples == 0 {
		p.EtaSamples = 5000
	}
	if p.EtaOnlineSamples == 0 {
		p.EtaOnlineSamples = 200
	}
}

type entry struct {
	level int32
	v     int32
	h     float64
}

// Engine is a PRSim engine; Build must run before Query.
type Engine struct {
	g *graph.Graph
	p Params

	maxDepth int
	nWalks   int
	built    bool

	hubIdx  []int32 // node -> hub ordinal, or -1
	hubs    []int32 // hub ordinal -> node
	hubEta  []float64
	hubOff  []int64
	hubList []entry

	walker  *walk.Walker
	etaRng  *walk.Walker
	counter *walk.LevelCounter
	prober  *push.Prober
	timeout time.Duration
}

// SetQueryTimeout arms a cooperative per-query deadline (0 disables);
// a query that exceeds it returns limits.ErrQueryTimeout.
func (e *Engine) SetQueryTimeout(budget time.Duration) { e.timeout = budget }

// New returns an unbuilt PRSim engine.
func New(g *graph.Graph, p Params) (*Engine, error) {
	p.fill()
	if p.C <= 0 || p.C >= 1 {
		return nil, fmt.Errorf("prsim: c must be in (0,1), got %v", p.C)
	}
	if p.EpsA <= 0 || p.EpsA >= 1 {
		return nil, fmt.Errorf("prsim: eps_a must be in (0,1), got %v", p.EpsA)
	}
	e := &Engine{g: g, p: p, maxDepth: push.MaxLevels(p.C, p.EpsA)}
	n := float64(g.N())
	if n < 2 {
		n = 2
	}
	e.nWalks = int(math.Ceil(math.Log(2*n/p.Delta) / (2 * p.EpsA * p.EpsA)))
	if p.WalkCap > 0 && e.nWalks > p.WalkCap {
		e.nWalks = p.WalkCap
	}
	if e.nWalks < 1 {
		e.nWalks = 1
	}
	return e, nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "PRSim" }

// Setting implements engine.Engine.
func (e *Engine) Setting() string { return fmt.Sprintf("eps_a=%g", e.p.EpsA) }

// Indexed implements engine.Engine.
func (e *Engine) Indexed() bool { return true }

// IndexBytes implements engine.Engine.
func (e *Engine) IndexBytes() int64 {
	b := int64(len(e.hubIdx))*4 + int64(len(e.hubs))*4 + int64(len(e.hubEta))*8
	b += int64(len(e.hubOff))*8 + int64(len(e.hubList))*16
	if e.prober != nil {
		b += e.prober.MemoryBytes() + e.counter.MemoryBytes()
	}
	return b
}

// NumWalks returns the per-query walk sample size.
func (e *Engine) NumWalks() int { return e.nWalks }

// Build selects hubs by in-degree and materializes their reverse lists and
// η values.
func (e *Engine) Build() error {
	n := e.g.N()
	j0 := e.p.NumHubs
	if j0 <= 0 {
		j0 = int32(math.Ceil(math.Sqrt(float64(n))))
	}
	if j0 > n {
		j0 = n
	}
	// top-j0 nodes by in-degree
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return e.g.InDeg(order[a]) > e.g.InDeg(order[b])
	})
	e.hubs = make([]int32, j0)
	copy(e.hubs, order[:j0])
	e.hubIdx = make([]int32, n)
	for i := range e.hubIdx {
		e.hubIdx[i] = -1
	}
	for i, h := range e.hubs {
		e.hubIdx[h] = int32(i)
	}

	// η for hubs (paired-walk sampling, parallel). Each hub's sampler is
	// reseeded from (Seed, hub ordinal), so hubEta does not depend on which
	// worker happens to claim which hub.
	e.hubEta = make([]float64, j0)
	etaCnt := e.etaBuildSamples()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var next int32
	var mu sync.Mutex
	lists := make([][]entry, j0)
	var size int64
	var buildErr error
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wlk := walk.NewWalker(e.g, e.p.C, rnd.New(0))
			pr := push.NewProber(e.g, e.p.C)
			for {
				mu.Lock()
				i := next
				next++
				over := buildErr != nil
				mu.Unlock()
				if i >= j0 || over {
					return
				}
				w := e.hubs[i]
				wlk.Reseed(e.p.Seed + uint64(i)*0xd1342543de82ef95 + 11)
				never := 0
				for s := 0; s < etaCnt; s++ {
					if pairNeverMeets(wlk, w) {
						never++
					}
				}
				e.hubEta[i] = float64(never) / float64(etaCnt)
				var list []entry
				pr.Push(w, e.maxDepth, e.p.EpsA, nil, func(d int, nodes []int32, vals []float64) {
					for j, v := range nodes {
						if vals[j] >= e.p.EpsA {
							list = append(list, entry{level: int32(d), v: v, h: vals[j]})
						}
					}
				})
				lists[i] = list
				mu.Lock()
				size += int64(len(list)) * 16
				if e.p.MaxIndexBytes > 0 && size > e.p.MaxIndexBytes && buildErr == nil {
					buildErr = &limits.ErrIndexTooLarge{Need: size, Cap: e.p.MaxIndexBytes}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if buildErr != nil {
		e.hubs, e.hubIdx, e.hubEta, e.hubOff, e.hubList = nil, nil, nil, nil, nil
		return buildErr
	}
	e.hubOff = make([]int64, j0+1)
	total := 0
	for i := int32(0); i < j0; i++ {
		total += len(lists[i])
		e.hubOff[i+1] = int64(total)
	}
	e.hubList = make([]entry, 0, total)
	for i := int32(0); i < j0; i++ {
		e.hubList = append(e.hubList, lists[i]...)
	}

	e.walker = walk.NewWalker(e.g, e.p.C, rnd.New(e.p.Seed^0xabcdef9876543210))
	e.etaRng = walk.NewWalker(e.g, e.p.C, rnd.New(e.p.Seed^0x1234567890abcdef))
	e.counter = walk.NewLevelCounter(n)
	e.prober = push.NewProber(e.g, e.p.C)
	e.built = true
	return nil
}

func (e *Engine) etaBuildSamples() int {
	half := e.p.EpsA / 2
	j0 := float64(len(e.hubs))
	if j0 < 2 {
		j0 = 2
	}
	cnt := int(math.Ceil(math.Log(2*j0/e.p.Delta) / (2 * half * half)))
	if cnt > e.p.EtaSamples {
		cnt = e.p.EtaSamples
	}
	if cnt < 16 {
		cnt = 16
	}
	return cnt
}

func pairNeverMeets(w *walk.Walker, v int32) bool {
	a, b := v, v
	for {
		na, okA := w.Next(a)
		nb, okB := w.Next(b)
		if !okA || !okB {
			return true
		}
		a, b = na, nb
		if a == b {
			return false
		}
	}
}

// Query estimates s(u, ·). Cancellation is checked between walk batches
// of stage 1 and between join batches of stage 2.
func (e *Engine) Query(ctx context.Context, u int32) ([]float64, error) {
	if !e.built {
		return nil, fmt.Errorf("prsim: Query before Build")
	}
	if !e.g.HasNode(u) {
		return nil, fmt.Errorf("prsim: %w: node %d not in [0, %d)", limits.ErrNodeOutOfRange, u, e.g.N())
	}
	n := e.g.N()
	scores := make([]float64, n)
	var deadline time.Time
	if e.timeout > 0 {
		deadline = time.Now().Add(e.timeout)
	}

	// Stage 1: estimate h^(ℓ)(u, w) by walk aggregation.
	e.counter.Reset()
	for i := 0; i < e.nWalks; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if e.timeout > 0 && time.Now().After(deadline) {
				return nil, limits.ErrQueryTimeout
			}
		}
		v := u
		for step := 1; step <= e.maxDepth; step++ {
			nv, ok := e.walker.Next(v)
			if !ok {
				break
			}
			v = nv
			e.counter.Add(step, v)
		}
	}

	// Stage 2: join each visited (ℓ, w) — hubs via the index, the tail via
	// adaptive online pushes.
	// Per-query η memo over the one snapshot this query is pinned to; it
	// dies with the query, so it can never serve a value across epochs.
	etaCache := map[int32]float64{} //lint:allow epochkey per-query memo on one pinned snapshot, freed at query end

	invWalks := 1 / float64(e.nWalks)
	// expected number of meeting levels: √c/(1-√c)
	levelMass := math.Sqrt(e.p.C) / (1 - math.Sqrt(e.p.C))
	var timedOut bool
	var ctxErr error
	joined := 0
	for l := 1; l < e.counter.MaxLevels(); l++ {
		if timedOut || ctxErr != nil {
			break
		}
		e.counter.ForEach(l, func(w int32, cnt int32) {
			if timedOut || ctxErr != nil {
				return
			}
			joined++
			if joined&63 == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return
				}
				if e.timeout > 0 && time.Now().After(deadline) {
					timedOut = true
					return
				}
			}
			pHat := float64(cnt) * invWalks
			if pHat <= 0 {
				return
			}
			if hi := e.hubIdx[w]; hi >= 0 {
				factor := pHat * e.hubEta[hi]
				for _, ent := range e.hubList[e.hubOff[hi]:e.hubOff[hi+1]] {
					if ent.level == int32(l) {
						scores[ent.v] += factor * ent.h
					}
				}
				return
			}
			// Non-hub: adaptive threshold keeps total tail error ≤ ~ε_a.
			theta := e.p.EpsA / (pHat * levelMass)
			if theta >= 1 {
				return // contribution provably below ε_a
			}
			eta, ok := etaCache[w]
			if !ok {
				never := 0
				for s := 0; s < e.p.EtaOnlineSamples; s++ {
					if pairNeverMeets(e.etaRng, w) {
						never++
					}
				}
				eta = float64(never) / float64(e.p.EtaOnlineSamples)
				etaCache[w] = eta
			}
			factor := pHat * eta
			e.prober.Push(w, l, theta, nil, func(d int, nodes []int32, vals []float64) {
				if d != l {
					return
				}
				for i, v := range nodes {
					scores[v] += factor * vals[i]
				}
			})
		})
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	if timedOut {
		return nil, limits.ErrQueryTimeout
	}
	scores[u] = 1
	return scores, nil
}
