package workload

import (
	"fmt"
	"sort"
	"time"

	"github.com/simrank/simpush/internal/rnd"
)

// Request is one entry of a generated trace: what to send and when
// (relative to the run's start). The JSON encoding is the replayability
// artifact — two runs of the same (spec, seed) must produce byte-equal
// encodings (property-tested in trace_test.go).
type Request struct {
	At    time.Duration `json:"at_ns"`
	Class string        `json:"class"`
	Op    Op            `json:"op"`
	Node  int32         `json:"node"`
	Node2 int32         `json:"node2,omitempty"` // pair's v / mutation's "to"
	K     int           `json:"k,omitempty"`
	Nodes []int32       `json:"nodes,omitempty"` // batch bodies
	Seed  uint64        `json:"seed,omitempty"`  // 0 = no ?seed parameter
	Eps   float64       `json:"eps,omitempty"`
}

// classStreams holds one class's derived random substreams. Each concern
// (arrival times, node popularity, op mix, fresh seeds) draws from its
// own substream so adding draws to one cannot shift another.
type classStreams struct {
	arrival *rnd.Source
	node    *rnd.Source
	mix     *rnd.Source
	seed    *rnd.Source
}

// deriveStreams builds each class's substreams from the spec seed. The
// k-th class's streams depend only on (spec.Seed, k), never on how much
// randomness other classes consumed.
func deriveStreams(seed uint64, classes int) []classStreams {
	root := rnd.New(seed)
	out := make([]classStreams, classes)
	for i := range out {
		cls := rnd.New(root.Uint64())
		out[i] = classStreams{
			arrival: cls.Split(),
			node:    cls.Split(),
			mix:     cls.Split(),
			seed:    cls.Split(),
		}
	}
	return out
}

// classSampler turns one class spec plus its substreams into concrete
// requests.
type classSampler struct {
	spec    *ClassSpec
	streams classStreams
	nodes   nodeSampler
	mix     []OpMix // cumulative weights
	mixSum  float64
	n       int32

	// addedEdges is the FIFO of edges this class has inserted and not
	// yet removed; remove-edge always takes the oldest one, so replayed
	// removals (in trace order) can never miss — an unmatched removal
	// would poison the server's next snapshot for unrelated queries.
	addedEdges [][2]int32
}

func newClassSampler(spec *ClassSpec, streams classStreams, n int32) *classSampler {
	cum := make([]OpMix, len(spec.Mix))
	sum := 0.0
	for i, m := range spec.Mix {
		sum += m.Weight
		cum[i] = OpMix{Op: m.Op, Weight: sum}
	}
	return &classSampler{
		spec:    spec,
		streams: streams,
		nodes:   newNodeSampler(&spec.Popularity, n),
		mix:     cum,
		mixSum:  sum,
		n:       n,
	}
}

func (c *classSampler) sampleOp() Op {
	x := c.streams.mix.Float64() * c.mixSum
	for _, m := range c.mix {
		if x < m.Weight {
			return m.Op
		}
	}
	return c.mix[len(c.mix)-1].Op
}

// pinnedSeed derives a per-node seed: a pure function of the node id, so
// every request for one node is cache-identical across classes and runs.
func pinnedSeed(node int32) uint64 {
	x := uint64(node)*0x9e3779b97f4a7c15 + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *classSampler) requestSeed(node int32, hot bool) uint64 {
	switch c.spec.SeedPolicy {
	case "fresh":
		return c.streams.seed.Uint64()
	case "hot-pinned":
		if hot {
			return pinnedSeed(node)
		}
		return c.streams.seed.Uint64()
	default: // "", "pinned"
		return pinnedSeed(node)
	}
}

// next generates this class's next request. All randomness comes from
// the class substreams, so the i-th request of a class is deterministic
// in (spec, seed, i).
func (c *classSampler) next(at time.Duration) Request {
	req := Request{At: at, Class: c.spec.Name, Eps: c.spec.Eps}
	switch op := c.sampleOp(); op {
	case OpSingleSource:
		node, hot := c.nodes.sample(c.streams.node)
		req.Op, req.Node, req.Seed = op, node, c.requestSeed(node, hot)
	case OpTopK:
		node, hot := c.nodes.sample(c.streams.node)
		k := c.spec.K
		if k <= 0 {
			k = 10
		}
		req.Op, req.Node, req.K, req.Seed = op, node, k, c.requestSeed(node, hot)
	case OpPair:
		u, hot := c.nodes.sample(c.streams.node)
		v, _ := c.nodes.sample(c.streams.node)
		req.Op, req.Node, req.Node2, req.Seed = op, u, v, c.requestSeed(u, hot)
	case OpBatch:
		size := c.spec.Batch
		if size <= 0 {
			size = 16
		}
		nodes := make([]int32, size)
		for i := range nodes {
			nodes[i], _ = c.nodes.sample(c.streams.node)
		}
		req.Op, req.Nodes, req.K = op, nodes, c.spec.K
		req.Node = nodes[0]
		req.Seed = c.requestSeed(nodes[0], false)
	case OpAddEdge:
		req = c.addEdge(req)
	case OpRemoveEdge:
		if len(c.addedEdges) == 0 {
			// Nothing of ours to remove yet; insert instead so the trace
			// never issues a removal the server must reject.
			req = c.addEdge(req)
			break
		}
		e := c.addedEdges[0]
		c.addedEdges = c.addedEdges[1:]
		req.Op, req.Node, req.Node2 = OpRemoveEdge, e[0], e[1]
	}
	return req
}

func (c *classSampler) addEdge(req Request) Request {
	from := c.streams.node.Int31n(c.n)
	to := c.streams.node.Int31n(c.n)
	if to == from {
		to = (to + 1) % c.n
	}
	c.addedEdges = append(c.addedEdges, [2]int32{from, to})
	req.Op, req.Node, req.Node2 = OpAddEdge, from, to
	return req
}

// Trace generates the full open-loop request trace of the spec against a
// graph of n nodes: every class's timed arrivals, merged into one
// ascending timeline. Ties are broken by class order (and, within a
// class, generation order), so the merge is deterministic.
//
// Closed-loop specs have no pregenerated trace; Trace returns an error
// for them (the runner paces those from the same per-class samplers).
func (s *Spec) Trace(n int32) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload %s: graph size must be positive (got %d)", s.Name, n)
	}
	closed, err := s.closed()
	if err != nil {
		return nil, err
	}
	if closed {
		return nil, fmt.Errorf("workload %s: closed-loop specs have no pregenerated trace", s.Name)
	}
	streams := deriveStreams(s.Seed, len(s.Classes))
	var all []Request
	for i := range s.Classes {
		cls := &s.Classes[i]
		sampler := newClassSampler(cls, streams[i], n)
		for _, at := range cls.Arrival.arrivalTimes(time.Duration(s.Duration), streams[i].arrival) {
			all = append(all, sampler.next(at))
		}
	}
	// Each class's slice is already time-ordered; a stable sort on At
	// alone keeps intra-class order and breaks cross-class ties by the
	// deterministic append order above.
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all, nil
}
