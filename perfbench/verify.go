package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"time"

	"github.com/simrank/simpush"
)

// verify is the correctness gate of every run. Without writes, each
// sampled response must be bit-identical to what an in-process
// simpush.Client computes on the same file with the same options and seed.
// With writes, leader and follower must end on the same epoch and return
// byte-equal payloads, the per-replica "cache" field aside. It returns
// false with a note per mismatch; an error means the check itself could
// not run.
func (b *bench) verify(ctx context.Context, top *topology, win *window) (bool, []string, error) {
	if b.w.writeRate > 0 {
		return b.verifyReplicas(ctx, top)
	}
	client, err := simpush.NewClient(simpush.DynamicFromGraph(b.g), engineOptions())
	if err != nil {
		return false, nil, err
	}
	defer client.Close()
	var notes []string
	checked := 0
	for i := range win.keep {
		if i >= len(win.spans) {
			continue
		}
		s := win.spans[i]
		if !s.ok() {
			notes = append(notes, fmt.Sprintf("sampled request %d failed with status %d", i, s.status))
			continue
		}
		if err := matchLibrary(ctx, client, s); err != nil {
			notes = append(notes, fmt.Sprintf("sampled request %d (%s node %d): %v", i, s.req.kind, s.req.node, err))
		}
		checked++
	}
	if checked == 0 {
		notes = append(notes, "no sampled response to check")
	}
	return len(notes) == 0, notes, nil
}

type scoreEntry struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// matchLibrary recomputes one served read in-process and compares every
// number exactly.
func matchLibrary(ctx context.Context, c *simpush.Client, s clientSpan) error {
	r := s.req
	res, err := c.SingleSource(ctx, r.node, simpush.WithSeed(r.seed))
	if err != nil {
		return err
	}
	var body struct {
		Results []scoreEntry `json:"results"`
		Scores  []scoreEntry `json:"scores"`
		Score   *float64     `json:"score"`
		L       int          `json:"l"`
		Walks   int          `json:"walks"`
	}
	if err := json.Unmarshal(s.body, &body); err != nil {
		return err
	}
	var want []scoreEntry
	got := body.Scores
	switch r.kind {
	case kindTopK:
		for _, e := range simpush.TopK(res.Scores, topK, r.node) {
			want = append(want, scoreEntry{e.Node, e.Score})
		}
		got = body.Results
	case kindSingle:
		if body.L != res.L || body.Walks != res.Walks {
			return fmt.Errorf("served L=%d walks=%d, library L=%d walks=%d", body.L, body.Walks, res.L, res.Walks)
		}
		for v, sc := range res.Scores {
			if sc != 0 {
				want = append(want, scoreEntry{int32(v), sc})
			}
		}
	case kindPair:
		if body.Score == nil || *body.Score != res.Scores[r.v] {
			return fmt.Errorf("served pair score differs from the library's %v", res.Scores[r.v])
		}
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("served %d entries, library %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d: served %+v, library %+v", i, got[i], want[i])
		}
	}
	return nil
}

var cacheField = regexp.MustCompile(`"cache":"[a-z]*",?`)

// replicaChecks is how many nodes the replica comparison queries.
const replicaChecks = 4

// verifyReplicas waits for the follower to reach the leader's epoch, then
// asks both for the same seeded queries and compares the payloads.
func (b *bench) verifyReplicas(ctx context.Context, top *topology) (bool, []string, error) {
	lead, follow := top.replicas[0].url, top.replicas[1].url
	deadline := time.Now().Add(30 * time.Second)
	for {
		e1, err := epoch(ctx, lead)
		if err != nil {
			return false, nil, err
		}
		e2, err := epoch(ctx, follow)
		if err != nil {
			return false, nil, err
		}
		if e1 == e2 {
			break
		}
		if time.Now().After(deadline) {
			return false, []string{fmt.Sprintf("follower stuck at epoch %d, leader at %d", e2, e1)}, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	var notes []string
	rng := b.gen.fork(b.opt.seed ^ 0xfeed).rng
	for i := 0; i < replicaChecks; i++ {
		u := int32(rng.IntN(int(b.g.N())))
		for _, path := range []string{
			fmt.Sprintf("/v1/single-source?node=%d&seed=%d&dense=1", u, b.gen.pinned),
			fmt.Sprintf("/v1/topk?node=%d&k=%d&seed=%d", u, topK, b.gen.pinned),
		} {
			a, err := fetch(ctx, lead+path)
			if err != nil {
				return false, nil, err
			}
			f, err := fetch(ctx, follow+path)
			if err != nil {
				return false, nil, err
			}
			if !bytes.Equal(cacheField.ReplaceAll(a, nil), cacheField.ReplaceAll(f, nil)) {
				notes = append(notes, "leader and follower disagree on "+path)
			}
		}
	}
	return len(notes) == 0, notes, nil
}

func fetch(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
