package workload

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// sample is one completed request observation.
type sample struct {
	class     string
	op        Op
	latency   time.Duration
	status    int  // 0 on transport error
	transport bool // request never got a response
}

// LatencySummary is a percentile digest of client-observed latencies.
type LatencySummary struct {
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// SLOResult scores a run against its spec's SLO.
type SLOResult struct {
	SLO             SLO     `json:"slo"`
	P50WithinTarget bool    `json:"p50_within_target"`
	P99WithinTarget bool    `json:"p99_within_target"`
	AttainmentPct   float64 `json:"attainment_pct"`
	AttainmentMet   bool    `json:"attainment_met"`
	ErrorPct        float64 `json:"error_pct"`
	ErrorBudgetMet  bool    `json:"error_budget_met"`
	Pass            bool    `json:"pass"`
}

// CacheDelta is the server-side cache movement over the run window.
type CacheDelta struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	HitRate   float64 `json:"hit_rate"`
}

// ServerCounters is a simrankd target's counter movement over the run
// window, from one /metricsz scrape before the run and one after.
type ServerCounters struct {
	Cache             CacheDelta   `json:"cache"`
	EngineQueries     uint64       `json:"engine_queries"`
	AdmissionRejected uint64       `json:"admission_rejected"`
	Metrics           MetricsDelta `json:"metrics_delta"`
}

// MetricsDelta is where the engine spent its time and how hard
// admission had to work over the run window.
type MetricsDelta struct {
	EngineStageSeconds   map[string]float64 `json:"engine_stage_seconds,omitempty"`
	AdmissionWaits       uint64             `json:"admission_waits"`
	AdmissionWaitSeconds float64            `json:"admission_wait_seconds"`
}

// ClassReport is the per-traffic-class slice of a Report.
type ClassReport struct {
	Class     string         `json:"class"`
	Requests  int            `json:"requests"`
	OK        int            `json:"ok"`
	Errors    int            `json:"errors"`
	Latency   LatencySummary `json:"latency"`
	Mutations int            `json:"mutations"`
}

// Report is the scored outcome of one workload run — the per-scenario
// record BENCH_PR8.json aggregates.
type Report struct {
	Scenario        string  `json:"scenario"`
	Description     string  `json:"description,omitempty"`
	Seed            uint64  `json:"seed"`
	Target          string  `json:"target"`
	DurationSeconds float64 `json:"duration_seconds"`

	Requests        int     `json:"requests"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	OK              int     `json:"ok"`
	Rejected429     int     `json:"rejected_429"`
	Errors5xx       int     `json:"errors_5xx"`
	Errors4xx       int     `json:"errors_4xx"`
	TransportErrors int     `json:"transport_errors"`
	Rate429         float64 `json:"rate_429"`
	Rate5xx         float64 `json:"rate_5xx"`

	Latency LatencySummary `json:"latency"`
	SLO     SLOResult      `json:"slo"`

	EpochAdvances uint64 `json:"epoch_advances"`
	ServerEpoch   uint64 `json:"server_epoch"`
	// The embedded counter blocks are nil, and omitted from the JSON,
	// against a simproxy: its /metricsz carries no cache or engine
	// counters.
	*ServerCounters
	Classes []ClassReport `json:"classes"`
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func summarize(latsMs []float64) LatencySummary {
	sort.Float64s(latsMs)
	s := LatencySummary{
		P50Ms: percentile(latsMs, 0.50),
		P90Ms: percentile(latsMs, 0.90),
		P99Ms: percentile(latsMs, 0.99),
	}
	if len(latsMs) > 0 {
		s.MaxMs = latsMs[len(latsMs)-1]
	}
	return s
}

// score builds the Report from raw samples plus the target's movement.
func score(spec *Spec, target string, elapsed time.Duration, samples []sample, before, after targetState) *Report {
	r := &Report{
		Scenario:        spec.Name,
		Description:     spec.Description,
		Seed:            spec.Seed,
		Target:          target,
		DurationSeconds: elapsed.Seconds(),
		SLO:             SLOResult{SLO: spec.SLO},
	}

	classIdx := make(map[string]int, len(spec.Classes))
	for i := range spec.Classes {
		classIdx[spec.Classes[i].Name] = i
		r.Classes = append(r.Classes, ClassReport{Class: spec.Classes[i].Name})
	}

	var okLats []float64
	classLats := make([][]float64, len(spec.Classes))
	attained := 0
	for _, s := range samples {
		r.Requests++
		ci := classIdx[s.class]
		cr := &r.Classes[ci]
		cr.Requests++
		if s.op.isMutation() {
			cr.Mutations++
		}
		switch {
		case s.transport:
			r.TransportErrors++
			cr.Errors++
		case s.status == 200:
			r.OK++
			cr.OK++
			ms := s.latency.Seconds() * 1000
			okLats = append(okLats, ms)
			classLats[ci] = append(classLats[ci], ms)
			if spec.SLO.AttainMs <= 0 || ms <= spec.SLO.AttainMs {
				attained++
			}
		case s.status == 429:
			r.Rejected429++
			cr.Errors++
		case s.status >= 500:
			r.Errors5xx++
			cr.Errors++
		default:
			r.Errors4xx++
			cr.Errors++
		}
	}
	if elapsed > 0 {
		r.ThroughputRPS = float64(r.Requests) / elapsed.Seconds()
	}
	r.Latency = summarize(okLats)
	for i := range r.Classes {
		r.Classes[i].Latency = summarize(classLats[i])
	}
	if r.Requests > 0 {
		r.Rate429 = float64(r.Rejected429) / float64(r.Requests)
		r.Rate5xx = float64(r.Errors5xx) / float64(r.Requests)
	}

	// SLO scoring. Attainment is over successful requests; the error
	// budget is over everything sent.
	slo := &r.SLO
	if r.OK > 0 {
		slo.AttainmentPct = 100 * float64(attained) / float64(r.OK)
	}
	slo.P50WithinTarget = spec.SLO.P50TargetMs <= 0 || r.Latency.P50Ms <= spec.SLO.P50TargetMs
	slo.P99WithinTarget = spec.SLO.P99TargetMs <= 0 || r.Latency.P99Ms <= spec.SLO.P99TargetMs
	slo.AttainmentMet = slo.AttainmentPct >= spec.SLO.AttainTargetPct
	if r.Requests > 0 {
		errs := r.Rejected429 + r.Errors5xx + r.TransportErrors
		slo.ErrorPct = 100 * float64(errs) / float64(r.Requests)
	}
	slo.ErrorBudgetMet = slo.ErrorPct <= spec.SLO.MaxErrorPct
	slo.Pass = r.OK > 0 && slo.P50WithinTarget && slo.P99WithinTarget && slo.AttainmentMet && slo.ErrorBudgetMet

	// Server-side deltas.
	if after.epoch > before.epoch {
		r.EpochAdvances = after.epoch - before.epoch
	}
	r.ServerEpoch = after.epoch
	if b, a := before.counters, after.counters; b != nil && a != nil {
		sc := &ServerCounters{
			Cache: CacheDelta{
				Hits:      c2u(a.hits - b.hits),
				Misses:    c2u(a.misses - b.misses),
				Coalesced: c2u(a.coalesced - b.coalesced),
			},
			EngineQueries:     c2u(a.queries - b.queries),
			AdmissionRejected: c2u(a.rejected - b.rejected),
			Metrics: MetricsDelta{
				EngineStageSeconds:   make(map[string]float64, len(a.stages)),
				AdmissionWaits:       c2u(a.waits - b.waits),
				AdmissionWaitSeconds: max(a.waitSeconds-b.waitSeconds, 0),
			},
		}
		if lookups := sc.Cache.Hits + sc.Cache.Misses; lookups > 0 {
			sc.Cache.HitRate = float64(sc.Cache.Hits) / float64(lookups)
		}
		for name, v := range a.stages {
			sc.Metrics.EngineStageSeconds[name] = max(v-b.stages[name], 0)
		}
		r.ServerCounters = sc
	}
	return r
}

// c2u converts a counter difference to uint64, clamping the negative
// deltas a mid-run restart would produce.
func c2u(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(v)
}

// WriteSummary prints the human-readable one-scenario summary simload
// shows after each run.
func (r *Report) WriteSummary(w io.Writer) {
	status := "PASS"
	if !r.SLO.Pass {
		status = "MISS"
	}
	fmt.Fprintf(w, "scenario %-18s seed=%d  %s\n", r.Scenario, r.Seed, status)
	fmt.Fprintf(w, "  requests %d (%.1f rps) over %.1fs: %d ok, %d x429, %d x5xx, %d x4xx, %d transport\n",
		r.Requests, r.ThroughputRPS, r.DurationSeconds,
		r.OK, r.Rejected429, r.Errors5xx, r.Errors4xx, r.TransportErrors)
	fmt.Fprintf(w, "  latency p50 %.1fms (target %.0f), p99 %.1fms (target %.0f), max %.1fms\n",
		r.Latency.P50Ms, r.SLO.SLO.P50TargetMs, r.Latency.P99Ms, r.SLO.SLO.P99TargetMs, r.Latency.MaxMs)
	fmt.Fprintf(w, "  attainment %.1f%% <= %.0fms (target %.0f%%), errors %.2f%% (budget %.1f%%)\n",
		r.SLO.AttainmentPct, r.SLO.SLO.AttainMs, r.SLO.SLO.AttainTargetPct,
		r.SLO.ErrorPct, r.SLO.SLO.MaxErrorPct)
	fmt.Fprintf(w, "  %d epoch advances, server at epoch %d\n", r.EpochAdvances, r.ServerEpoch)
	if r.ServerCounters != nil {
		m := r.Metrics
		fmt.Fprintf(w, "  cache hit rate %.3f (%d hits / %d misses / %d coalesced), %d engine queries\n",
			r.Cache.HitRate, r.Cache.Hits, r.Cache.Misses, r.Cache.Coalesced, r.EngineQueries)
		stages := make([]string, 0, len(m.EngineStageSeconds))
		for name := range m.EngineStageSeconds {
			stages = append(stages, name)
		}
		sort.Strings(stages)
		fmt.Fprintf(w, "  engine time")
		for _, name := range stages {
			fmt.Fprintf(w, " %s %.3fs", name, m.EngineStageSeconds[name])
		}
		fmt.Fprintf(w, "; admission waits %d (%.3fs queued)\n", m.AdmissionWaits, m.AdmissionWaitSeconds)
	}
	for _, c := range r.Classes {
		fmt.Fprintf(w, "  class %-16s %6d req, %5d ok, %4d err, %4d mut, p50 %.1fms p99 %.1fms\n",
			c.Class, c.Requests, c.OK, c.Errors, c.Mutations, c.Latency.P50Ms, c.Latency.P99Ms)
	}
}
