package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clientSpan is the load generator's view of one request, in offsets from
// the start of its phase. For open-loop requests due is the scheduled send
// time; for closed-loop ones it equals sent.
type clientSpan struct {
	req    request
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int // 0 on a transport failure
	bytes  int
	body   []byte // kept only for requests sampled for the correctness gate
}

func (s clientSpan) ok() bool { return s.status >= 200 && s.status < 300 }

// latency is the request's latency in ms, measured from its scheduled send
// time so a stall also charges the requests it delays.
func (s clientSpan) latency() float64 { return ms(s.done - s.due) }

// service is the time the request spent on the wire and in the stack, in
// ms, without the generator's own lateness.
func (s clientSpan) service() float64 { return ms(s.done - s.sent) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loader is the one load-generating client: at most `slots` requests are
// outstanding and at most as many idle connections are kept per host.
type loader struct {
	http  *http.Client
	slots int
}

func newLoader(slots int) *loader {
	tr := &http.Transport{
		MaxIdleConns:        slots,
		MaxIdleConnsPerHost: slots,
		MaxConnsPerHost:     slots,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &loader{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, slots: slots}
}

func (l *loader) close() { l.http.CloseIdleConnections() }

// target builds the HTTP request for r against base, stamped with id.
func target(ctx context.Context, base string, r request, id string) (*http.Request, error) {
	var method, path string
	var body io.Reader
	switch r.kind {
	case kindTopK:
		method, path = http.MethodGet, fmt.Sprintf("/v1/topk?node=%d&k=%d&seed=%d", r.node, topK, r.seed)
	case kindSingle:
		method, path = http.MethodGet, fmt.Sprintf("/v1/single-source?node=%d&seed=%d", r.node, r.seed)
	case kindPair:
		method, path = http.MethodGet, fmt.Sprintf("/v1/pair?u=%d&v=%d&seed=%d", r.node, r.v, r.seed)
	case kindAdd, kindRemove:
		method, path = http.MethodPost, "/v1/edges"
		if r.kind == kindRemove {
			method = http.MethodDelete
		}
		body = strings.NewReader(fmt.Sprintf(`{"from":%d,"to":%d}`, r.node, r.v))
	default:
		return nil, fmt.Errorf("unknown request kind %q", r.kind)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// send performs one request and fills in sent, done, status and bytes of
// span, keeping the body when keep is set.
func (l *loader) send(ctx context.Context, base string, span *clientSpan, id string, t0 time.Time, keep bool) {
	span.sent = time.Since(t0)
	defer func() { span.done = time.Since(t0) }()
	req, err := target(ctx, base, span.req, id)
	if err != nil {
		return
	}
	resp, err := l.http.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if keep {
		var buf bytes.Buffer
		n, err := io.Copy(&buf, resp.Body)
		span.bytes, span.body = int(n), buf.Bytes()
		if err != nil {
			return
		}
	} else {
		n, err := io.Copy(io.Discard, resp.Body)
		span.bytes = int(n)
		if err != nil {
			return
		}
	}
	span.status = resp.StatusCode
}

// phase is one run of the load generator over a list of requests or a
// closed-loop source.
type phase struct {
	base   string          // URL of the serving front
	prefix string          // request-id prefix; ids are prefix + index
	keep   map[int]bool    // indices whose bodies are kept
	spans  []clientSpan    // filled by run
	start  time.Time       // when the phase started
	lag    []time.Duration // how late each open-loop request was sent
}

func (p *phase) id(i int) string { return fmt.Sprintf("%s%d", p.prefix, i) }

// runOpen sends reqs on their schedule. A request waits for a free slot
// when every slot is busy, and that wait counts in its latency.
func (l *loader) runOpen(ctx context.Context, p *phase, reqs []request) {
	p.spans = make([]clientSpan, len(reqs))
	for i, r := range reqs {
		p.spans[i] = clientSpan{req: r, due: r.due}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for w := 0; w < l.slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				span := &p.spans[i]
				if wait := span.due - time.Since(p.start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				l.send(ctx, p.base, span, p.id(i), p.start, p.keep[i])
			}
		}()
	}
	wg.Wait()
	p.lag = make([]time.Duration, len(p.spans))
	for i, s := range p.spans {
		p.lag[i] = s.sent - s.due
	}
}

// runClosed runs `clients` closed loops for d: each client sends its next
// request as soon as the previous one completes, drawing requests in order
// from draw. Requests still running at the deadline complete and count.
func (l *loader) runClosed(ctx context.Context, p *phase, clients int, d time.Duration, draw func() request) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	p.start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Duration
			for ctx.Err() == nil && time.Since(p.start) < d {
				mu.Lock()
				i := len(p.spans)
				p.spans = append(p.spans, clientSpan{req: draw()})
				span := p.spans[i]
				mu.Unlock()
				l.send(ctx, p.base, &span, p.id(i), p.start, p.keep[i])
				span.due = span.sent
				mu.Lock()
				p.spans[i] = span
				p.lag = append(p.lag, span.sent-last)
				mu.Unlock()
				last = span.done
			}
		}()
	}
	wg.Wait()
}
