package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func durationMs(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 100, 100},
		{90, 180, 20},
		{99, 198, 2},
		{100, 200, 0},
		{0.1, 1, 199},
	} {
		v, beyond := percentile(xs, tc.p)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile sorted its input in place")
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("empty input gave %g, %d", v, beyond)
	}
	// A single sample is every percentile, with nothing beyond it.
	if v, beyond := percentile([]float64{7}, 99); v != 7 || beyond != 0 {
		t.Errorf("one sample gave %g, %d", v, beyond)
	}
}

func TestSelfTimeOverlappingSpans(t *testing.T) {
	parent := interval{start: 0, dur: 10}
	for _, tc := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []interval{{1, 2}, {5, 1}}, 7},
		{"overlapping counted once", []interval{{1, 4}, {3, 4}}, 4},
		{"nested", []interval{{2, 6}, {3, 1}, {4, 2}}, 4},
		{"clipped to the parent", []interval{{-5, 7}, {9, 5}}, 7},
		{"outside the parent", []interval{{12, 3}}, 10},
		{"covers everything", []interval{{0, 10}, {2, 3}}, 0},
	} {
		if got := selfTime(parent, tc.children); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: self time %g, want %g", tc.name, got, tc.want)
		}
	}
	// A parent that does not start at zero clips against its own interval.
	if got := selfTime(interval{start: 5, dur: 5}, []interval{{0, 6}, {9, 3}}); got != 3 {
		t.Errorf("offset parent: self time %g, want 3", got)
	}
}

const scrapeBefore = `# HELP simrankd_cache_hits_total Result-cache hits.
# TYPE simrankd_cache_hits_total counter
simrankd_cache_hits_total 10
simrankd_engine_stage_seconds_total{stage="walk"} 1.5
simrankd_engine_stage_seconds_total{stage="gamma"} 0.25
simrankd_requests_total{endpoint="topk"} 4
simrankd_requests_total{endpoint="pair"} 1
`

const scrapeAfter = `simrankd_cache_hits_total 25

simrankd_engine_stage_seconds_total{stage="walk"} 2
simrankd_engine_stage_seconds_total{stage="gamma"} 0.75
simrankd_requests_total{endpoint="topk"} 9
simrankd_requests_total{endpoint="pair"} 3
`

func TestCounterDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"simrankd_cache_hits_total", nil, 15},
		{"simrankd_engine_stage_seconds_total", map[string]string{"stage": "walk"}, 0.5},
		{"simrankd_engine_stage_seconds_total", map[string]string{"stage": "gamma"}, 0.5},
		{"simrankd_requests_total", nil, 7}, // every label set, summed
		{"simrankd_requests_total", map[string]string{"endpoint": "pair"}, 2},
		{"simrankd_missing_total", nil, 0},
	} {
		got, err := counterDelta(before, after, tc.name, tc.match)
		if err != nil || got != tc.want {
			t.Errorf("%s%v: delta %g (%v), want %g", tc.name, tc.match, got, err, tc.want)
		}
	}
	// The reverse order looks like a restarted process.
	if _, err := counterDelta(after, before, "simrankd_cache_hits_total", nil); err == nil {
		t.Error("a counter that went down was accepted")
	}
	if _, err := parseProm(strings.NewReader("simrankd_x{a=\"b\" 1\n")); err == nil {
		t.Error("unterminated labels were accepted")
	}
	if _, err := parseProm(strings.NewReader("simrankd_x notanumber\n")); err == nil {
		t.Error("a bad value was accepted")
	}
}

func TestJoinByID(t *testing.T) {
	spans := map[string]clientSpan{
		"t-0": {req: request{kind: kindTopK, node: 1}},
		"t-1": {req: request{kind: kindSingle, node: 2}},
		"t-2": {req: request{kind: kindPair, node: 3}},
	}
	recs := []traceRecord{
		{RequestID: "t-0", Status: 200, DurationMs: 3},
		{RequestID: "t-1", Status: 429, DurationMs: 1}, // shed, then retried elsewhere
		{RequestID: "t-1", Status: 200, DurationMs: 2},
		{RequestID: "t-9", Status: 200, DurationMs: 5}, // never sent in the window
		{RequestID: "other", Status: 200, DurationMs: 5},
	}
	pairs, unmatched := joinByID(spans, recs)
	if unmatched != 2 {
		t.Errorf("unmatched = %d, want 2", unmatched)
	}
	if len(pairs) != 2 {
		t.Fatalf("joined %d pairs, want 2 (t-2 left no record)", len(pairs))
	}
	if pairs[0].rec.RequestID != "t-0" || pairs[0].span.req.node != 1 {
		t.Errorf("first pair %+v", pairs[0])
	}
	if pairs[1].rec.Status != 200 || pairs[1].span.req.node != 2 {
		t.Errorf("retried request joined to %+v, want its successful record", pairs[1].rec)
	}
	// Between two successful records of one id, the longer one wins.
	pairs, _ = joinByID(spans, []traceRecord{
		{RequestID: "t-2", Status: 200, DurationMs: 4},
		{RequestID: "t-2", Status: 200, DurationMs: 9},
		{RequestID: "t-2", Status: 200, DurationMs: 1},
	})
	if len(pairs) != 1 || pairs[0].rec.DurationMs != 9 {
		t.Errorf("duplicate successes joined to %+v", pairs)
	}
}

// TestSliceMedians checks that the latency percentiles are medians over
// the window's parts, so one slow part does not move them.
func TestSliceMedians(t *testing.T) {
	const part = 1000 // ms per part
	win := &window{slice: durationMs(part), cpu: durationMs(1000)}
	for k := 0; k < slices; k++ {
		lat := 10.0
		if k == 2 {
			lat = 500 // the host stalled during this part
		}
		for i := 0; i < 100; i++ {
			due := durationMs(float64(k*part + i))
			win.spans = append(win.spans, clientSpan{
				req: request{kind: kindTopK}, due: due, sent: due, done: due + durationMs(lat), status: 200,
			})
		}
	}
	win.spans = append(win.spans, clientSpan{req: request{kind: kindAdd}}) // a transport failure
	rep := &report{metrics: map[string]metric{}}
	win.endToEnd(rep)
	for name, want := range map[string]float64{
		"query_p75_ms":   10,
		"query_qps":      500 / 4.109, // the last read completes at 4099+10 ms
		"cpu_ms_per_req": 2,           // 1000 ms over the 500 answered requests
	} {
		if got := rep.metrics[name].value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := win.readPercentile(50); got != 10 {
		t.Errorf("median p50 = %g, want 10", got)
	}
	if rep.attempted != 501 || rep.failed != 1 {
		t.Errorf("attempted %d failed %d, want 501 and 1", rep.attempted, rep.failed)
	}
}
