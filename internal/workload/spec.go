// Package workload is the declarative workload-model subsystem behind
// cmd/simload: it turns a compact JSON/flag spec — traffic classes with
// arrival processes, node popularity distributions and endpoint mixes —
// into a fully replayable request trace, drives a running simrankd or
// simproxy over HTTP, and scores the observed latency/error behaviour
// against per-scenario SLOs.
//
// Determinism contract: the same (Spec, Seed) pair generates a
// byte-identical request trace on every run, on any GOMAXPROCS — every
// random draw flows from rnd.Source substreams derived off the spec seed
// with the same splitmix64 chain idiom internal/walk uses for its worker
// substreams. What the *server* does with the trace (latencies, 429s)
// varies run to run; what the client *sends* does not.
package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Op names one request kind a traffic class can issue. The query ops map
// 1:1 onto simrankd endpoints; the mutation ops drive /v1/edges.
type Op string

const (
	OpSingleSource Op = "single-source"
	OpTopK         Op = "topk"
	OpPair         Op = "pair"
	OpBatch        Op = "batch"
	OpAddEdge      Op = "add-edge"
	OpRemoveEdge   Op = "remove-edge"
)

func (o Op) valid() bool {
	switch o {
	case OpSingleSource, OpTopK, OpPair, OpBatch, OpAddEdge, OpRemoveEdge:
		return true
	}
	return false
}

// isMutation reports whether the op writes to the graph. Mutations are
// replayed in trace order through one serialized lane (see runner.go) so
// a remove never races ahead of the add it refers to.
func (o Op) isMutation() bool { return o == OpAddEdge || o == OpRemoveEdge }

// Duration is a time.Duration that marshals as a Go duration string
// ("1m30s") so specs stay human-editable.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("workload: bad duration %q: %w", s, perr)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("workload: duration must be a string like %q or nanoseconds", "30s")
	}
	*d = Duration(ns)
	return nil
}

// Spec is one complete workload: a named set of traffic classes run for
// a fixed window from one seed, scored against one SLO.
type Spec struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Duration    Duration    `json:"duration"`
	Seed        uint64      `json:"seed"`
	Classes     []ClassSpec `json:"classes"`
	SLO         SLO         `json:"slo"`
}

// ClassSpec is one traffic class: how often it sends (Arrival), which
// nodes it asks about (Popularity), and what it asks (Mix).
type ClassSpec struct {
	Name       string         `json:"name"`
	Arrival    ArrivalSpec    `json:"arrival"`
	Popularity PopularitySpec `json:"popularity"`
	Mix        []OpMix        `json:"mix"`

	// K is the k of topk requests (default 10).
	K int `json:"k,omitempty"`
	// Batch is the node count of batch requests (default 16).
	Batch int `json:"batch,omitempty"`
	// Eps is a per-request eps override (0 = server default).
	Eps float64 `json:"eps,omitempty"`

	// SeedPolicy controls the per-request ?seed parameter, which is part
	// of the server's cache key:
	//
	//   pinned     seed is a pure function of the node → repeats of a hot
	//              node are cache-identical (default; realistic for
	//              product traffic that doesn't set seeds at all)
	//   fresh      every request draws a new seed → every query misses
	//   hot-pinned pinned for nodes drawn from the hot set, fresh
	//              otherwise (a hot set of repeat queries over a cold tail)
	SeedPolicy string `json:"seed_policy,omitempty"`
}

// OpMix is one weighted entry of a class's endpoint mix.
type OpMix struct {
	Op     Op      `json:"op"`
	Weight float64 `json:"weight"`
}

// ArrivalSpec selects and parameterizes a class's arrival process.
type ArrivalSpec struct {
	// Process: poisson | bursty | diurnal | closed.
	Process string `json:"process"`

	// RateRPS is the mean request rate: the Poisson rate, the bursty
	// off-phase (baseline) rate, or the diurnal peak rate.
	RateRPS float64 `json:"rate_rps,omitempty"`

	// Bursty (Markov-modulated on/off): during an on-phase the class
	// sends at BurstRateRPS, otherwise at RateRPS; phase lengths are
	// exponential with means OnMean and OffMean.
	BurstRateRPS float64  `json:"burst_rate_rps,omitempty"`
	OnMean       Duration `json:"on_mean,omitempty"`
	OffMean      Duration `json:"off_mean,omitempty"`

	// Diurnal: the rate follows one sinusoid of the given Period scaled
	// between MinFrac×RateRPS (trough) and RateRPS (peak). A 24h curve
	// compressed into a 30s run uses Period: "30s".
	Period  Duration `json:"period,omitempty"`
	MinFrac float64  `json:"min_frac,omitempty"`

	// Closed: a closed loop of Concurrency workers, each sending its
	// next request the moment the previous response lands. No
	// pregenerated trace (issue times depend on the server); the request
	// *sequence* per worker is still deterministic.
	Concurrency int `json:"concurrency,omitempty"`
}

// PopularitySpec selects which nodes a class queries.
type PopularitySpec struct {
	// Dist: zipf | hotset | uniform.
	Dist string `json:"dist"`

	// S is the Zipf skew exponent (> 0); higher concentrates more mass
	// on low-numbered nodes.
	S float64 `json:"s,omitempty"`

	// Hotset: a request draws uniformly from nodes [0, Hot) with
	// probability HotFrac, else uniformly from the whole graph.
	Hot     int     `json:"hot,omitempty"`
	HotFrac float64 `json:"hot_frac,omitempty"`
}

// SLO is the per-scenario service-level objective the report scores
// against. All latency targets are client-observed milliseconds.
type SLO struct {
	// P50TargetMs / P99TargetMs bound the aggregate latency percentiles.
	P50TargetMs float64 `json:"p50_target_ms"`
	P99TargetMs float64 `json:"p99_target_ms"`

	// Attainment: at least AttainTargetPct percent of successful
	// requests must finish within AttainMs.
	AttainMs        float64 `json:"attain_ms"`
	AttainTargetPct float64 `json:"attain_target_pct"`

	// MaxErrorPct bounds the request-weighted share of 429s, 5xx and
	// transport errors.
	MaxErrorPct float64 `json:"max_error_pct"`
}

// Validate checks the spec for structural errors before any traffic is
// generated, so a bad spec fails fast instead of mid-run.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("workload %s: duration must be positive", s.Name)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("workload %s: at least one traffic class is required", s.Name)
	}
	seen := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("workload %s: class %d needs a name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload %s: duplicate class name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if err := c.Arrival.validate(); err != nil {
			return fmt.Errorf("workload %s, class %s: %w", s.Name, c.Name, err)
		}
		if err := c.Popularity.validate(); err != nil {
			return fmt.Errorf("workload %s, class %s: %w", s.Name, c.Name, err)
		}
		if len(c.Mix) == 0 {
			return fmt.Errorf("workload %s, class %s: empty endpoint mix", s.Name, c.Name)
		}
		total := 0.0
		for _, m := range c.Mix {
			if !m.Op.valid() {
				return fmt.Errorf("workload %s, class %s: unknown op %q", s.Name, c.Name, m.Op)
			}
			if m.Weight <= 0 {
				return fmt.Errorf("workload %s, class %s: op %s weight must be positive", s.Name, c.Name, m.Op)
			}
			total += m.Weight
		}
		if total <= 0 {
			return fmt.Errorf("workload %s, class %s: mix weights sum to zero", s.Name, c.Name)
		}
		if c.K < 0 || c.Batch < 0 || c.Eps < 0 {
			return fmt.Errorf("workload %s, class %s: k, batch and eps must be non-negative", s.Name, c.Name)
		}
		switch c.SeedPolicy {
		case "", "pinned", "fresh", "hot-pinned":
		default:
			return fmt.Errorf("workload %s, class %s: unknown seed_policy %q", s.Name, c.Name, c.SeedPolicy)
		}
	}
	return nil
}

func (a *ArrivalSpec) validate() error {
	switch a.Process {
	case "poisson":
		if a.RateRPS <= 0 {
			return fmt.Errorf("poisson arrival needs rate_rps > 0")
		}
	case "bursty":
		if a.RateRPS < 0 || a.BurstRateRPS <= 0 {
			return fmt.Errorf("bursty arrival needs burst_rate_rps > 0 and rate_rps >= 0")
		}
		if a.BurstRateRPS <= a.RateRPS {
			return fmt.Errorf("bursty arrival needs burst_rate_rps > rate_rps")
		}
		if a.OnMean <= 0 || a.OffMean <= 0 {
			return fmt.Errorf("bursty arrival needs positive on_mean and off_mean")
		}
	case "diurnal":
		if a.RateRPS <= 0 {
			return fmt.Errorf("diurnal arrival needs rate_rps > 0 (the peak rate)")
		}
		if a.Period <= 0 {
			return fmt.Errorf("diurnal arrival needs a positive period")
		}
		if a.MinFrac < 0 || a.MinFrac > 1 {
			return fmt.Errorf("diurnal min_frac must be in [0, 1]")
		}
	case "closed":
		if a.Concurrency <= 0 {
			return fmt.Errorf("closed arrival needs concurrency > 0")
		}
	case "":
		return fmt.Errorf("arrival process is required (poisson|bursty|diurnal|closed)")
	default:
		return fmt.Errorf("unknown arrival process %q (want poisson|bursty|diurnal|closed)", a.Process)
	}
	return nil
}

func (p *PopularitySpec) validate() error {
	switch p.Dist {
	case "zipf":
		if p.S <= 0 {
			return fmt.Errorf("zipf popularity needs skew s > 0")
		}
	case "hotset":
		if p.Hot <= 0 {
			return fmt.Errorf("hotset popularity needs hot > 0")
		}
		if p.HotFrac < 0 || p.HotFrac > 1 {
			return fmt.Errorf("hotset hot_frac must be in [0, 1]")
		}
	case "uniform":
	case "":
		return fmt.Errorf("popularity dist is required (zipf|hotset|uniform)")
	default:
		return fmt.Errorf("unknown popularity dist %q (want zipf|hotset|uniform)", p.Dist)
	}
	return nil
}

// closed reports whether every class runs a closed loop. Open-loop and
// closed-loop classes cannot mix in one spec: the former replay a timed
// trace, the latter are paced by the server.
func (s *Spec) closed() (bool, error) {
	nClosed := 0
	for i := range s.Classes {
		if s.Classes[i].Arrival.Process == "closed" {
			nClosed++
		}
	}
	switch nClosed {
	case 0:
		return false, nil
	case len(s.Classes):
		return true, nil
	default:
		return false, fmt.Errorf("workload %s: open-loop and closed-loop classes cannot mix in one spec", s.Name)
	}
}

// LoadSpec reads and validates a JSON spec file.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: reading spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("workload: parsing spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
