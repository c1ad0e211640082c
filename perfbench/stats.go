package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and how many samples lie beyond that rank, so a report can say whether
// the percentile rests on enough tail samples. An empty input yields 0, 0.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a span on a request's time line, in milliseconds from the
// start of the request's trace.
type interval struct {
	start, dur float64
}

// covered returns how much of [lo, hi] the union of ivs covers: spans
// that overlap each other are counted once, and the parts of a span
// outside [lo, hi] not at all.
func covered(lo, hi float64, ivs []interval) float64 {
	type seg struct{ a, b float64 }
	segs := make([]seg, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.start, lo), min(iv.start+iv.dur, hi)
		if b > a {
			segs = append(segs, seg{a, b})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].a < segs[j].a })
	total, end := 0.0, math.Inf(-1)
	for _, s := range segs {
		if s.a > end {
			total += s.b - s.a
			end = s.b
		} else if s.b > end {
			total += s.b - end
			end = s.b
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(parent interval, children []interval) float64 {
	return parent.dur - covered(parent.start, parent.start+parent.dur, children)
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the Prometheus text format as the daemons' /metricsz
// writes it: comment and blank lines are skipped, every other line is
// name[{k="v",...}] value.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			s.name = line[:i]
			for _, kv := range strings.Split(line[i+1:j], ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					continue
				}
				s.labels[strings.TrimSpace(k)] = strings.Trim(strings.TrimSpace(v), `"`)
			}
			rest = line[j+1:]
		} else {
			name, r, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("metrics line %q: no value", line)
			}
			s.name, rest = name, r
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// sumSamples adds up every sample called name whose labels include all of
// match.
func sumSamples(ss []promSample, name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range ss {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// counterDelta is how much a counter grew between two scrapes of the same
// process. A counter that went down means the process restarted between
// the scrapes, which makes the window's numbers meaningless.
func counterDelta(before, after []promSample, name string, match map[string]string) (float64, error) {
	d := sumSamples(after, name, match) - sumSamples(before, name, match)
	if d < 0 {
		return 0, fmt.Errorf("counter %s went down by %g between scrapes", name, -d)
	}
	return d, nil
}

// traceSpan and traceRecord decode one element of a daemon's
// /debug/queries.
type traceSpan struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"duration_ms"`
}

type traceRecord struct {
	RequestID  string      `json:"request_id"`
	Endpoint   string      `json:"endpoint"`
	Cache      string      `json:"cache"`
	Status     int         `json:"status"`
	DurationMs float64     `json:"duration_ms"`
	Spans      []traceSpan `json:"spans"`
}

// spans returns the record's spans with one of the given names.
func (r traceRecord) spans(names ...string) []interval {
	var out []interval
	for _, s := range r.Spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, interval{s.StartMs, s.DurMs})
				break
			}
		}
	}
	return out
}

// spanTotal sums the durations of the record's spans with one of names.
func (r traceRecord) spanTotal(names ...string) float64 {
	total := 0.0
	for _, iv := range r.spans(names...) {
		total += iv.dur
	}
	return total
}

// joined pairs the load generator's view of one request with the record
// the serving replica kept for it.
type joined struct {
	span clientSpan
	rec  traceRecord
}

// joinByID joins replica trace records to client spans on the request id.
// Records whose id the client never sent in the timed window are dropped
// and counted. When a request left more than one record (the proxy
// retried it on a second replica) the successful, longest record wins.
func joinByID(spans map[string]clientSpan, recs []traceRecord) (pairs []joined, unmatched int) {
	best := make(map[string]traceRecord, len(spans))
	for _, r := range recs {
		if _, ok := spans[r.RequestID]; !ok {
			unmatched++
			continue
		}
		if old, ok := best[r.RequestID]; ok {
			oldOK, newOK := old.Status < 300, r.Status < 300
			if oldOK && !newOK || oldOK == newOK && old.DurationMs >= r.DurationMs {
				continue
			}
		}
		best[r.RequestID] = r
	}
	ids := make([]string, 0, len(best))
	for id := range best {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		pairs = append(pairs, joined{span: spans[id], rec: best[id]})
	}
	return pairs, unmatched
}
