package simpush_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/simrank/simpush"
	"github.com/simrank/simpush/internal/core"
	"github.com/simrank/simpush/internal/gen"
	"github.com/simrank/simpush/internal/server"
)

// Golden outputs: SHA-256 digests over the exact bits of seeded query
// answers, from the library Client and from the HTTP server. A change that
// claims to leave scores untouched (a refactor, a deleted code path, a
// scratch-layout change) must keep every digest; a change that moves one
// must say why and re-record it.
//
// The digests are recorded on amd64. Other architectures may fuse
// multiply-adds, which changes the last bits of a score legitimately.

var goldenClient = map[string]string{
	"copying/chernoff/eps=0.05": "0f12f464ea6e1450d94ab57c2066fb4a15a5feb10b1e291e53d225f4a5e54699",
	"copying/chernoff/eps=0.02": "5c7cd7648f17e2718937f3ed3573cebed464448f85e22c3ae59596fcda38b6be",
	"copying/det/eps=0.05":      "396c7798e8b566bb0b0eb69c7343cf825903bdf1c2321250390d3ea397e5a052",
	"copying/det/eps=0.02":      "27bf82d4716e5a7f1023526b9a22c630490adab5f75190c88e3d370ed6273be0",
	"ba/chernoff/eps=0.05":      "30f3e56efafbfbbef41c4cab6c67447af4c03cb7a22e615991d7ceb3aa2dde3e",
	"ba/chernoff/eps=0.02":      "eebbbdbcd94f9e458e0e4000ef4c5e4455766faaf93e3190172d080f00c56eff",
	"ba/det/eps=0.05":           "65c1faba56069ff27b7ed3ef85011b2bc534feb3cdd2c7ab066de27ed66d1ddf",
	"ba/det/eps=0.02":           "f09174cf3c4e0f4313306de434a1efa931e23ac07d69ab7c35e279c3c77cee0b",
}

var goldenServer = "202426631994136e7562ee0b5273e81c9b7ff8455bb90b2f80c9f1c4abe64e6e"

// goldenGraphs are one directed and one undirected generator graph.
func goldenGraphs(t *testing.T) map[string]*simpush.Graph {
	t.Helper()
	directed, err := gen.CopyingModel(1500, 5, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	undirected, err := gen.BarabasiAlbert(1500, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*simpush.Graph{"copying": directed, "ba": undirected}
}

// goldenSources mixes low and high ids so both early hubs and late
// low-degree nodes of the generators are queried.
var goldenSources = []int32{0, 7, 123, 999, 1499}

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) num(v int)     { d.u64(uint64(int64(v))) }

func (d *digest) result(res *simpush.Result) {
	d.num(len(res.Scores))
	for _, s := range res.Scores {
		d.f64(s)
	}
	d.num(res.L)
	d.num(res.Walks)
	d.num(res.SourceGraphSize)
	d.num(len(res.Attention))
	for _, a := range res.Attention {
		d.num(a.Level)
		d.num(int(a.Node))
		d.f64(a.H)
		d.f64(a.Gamma)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// clientDigest runs seeded SingleSource, TopK, Pair and BatchSingleSource
// calls and folds every output bit into one digest.
func clientDigest(t *testing.T, g *simpush.Graph, opt simpush.Options) string {
	t.Helper()
	c, err := simpush.NewClient(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	d := newDigest()
	for i, u := range goldenSources {
		seed := simpush.WithSeed(uint64(100 + i))
		res, err := c.SingleSource(ctx, u, seed)
		if err != nil {
			t.Fatal(err)
		}
		d.result(res)
		top, err := c.TopK(ctx, u, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		d.num(len(top))
		for _, r := range top {
			d.num(int(r.Node))
			d.f64(r.Score)
		}
		v := goldenSources[(i+1)%len(goldenSources)]
		s, err := c.Pair(ctx, u, v, seed)
		if err != nil {
			t.Fatal(err)
		}
		d.f64(s)
	}
	for _, width := range []int{0, 1, 2} {
		rows, err := c.BatchSingleSource(ctx, goldenSources, width, simpush.WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rows {
			d.result(res)
		}
	}
	return d.sum()
}

func TestGoldenClientOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	graphs := goldenGraphs(t)
	modes := map[string]core.LevelDetectMode{
		"chernoff": core.LevelDetectChernoff,
		"det":      core.LevelDetectDeterministic,
	}
	for _, gname := range []string{"copying", "ba"} {
		for _, mname := range []string{"chernoff", "det"} {
			for _, eps := range []float64{0.05, 0.02} {
				name := fmt.Sprintf("%s/%s/eps=%g", gname, mname, eps)
				t.Run(name, func(t *testing.T) {
					opt := simpush.Options{Epsilon: eps, Seed: 3, LevelDetect: modes[mname]}
					if got := clientDigest(t, graphs[gname], opt); got != goldenClient[name] {
						t.Errorf("digest = %s, want %s", got, goldenClient[name])
					}
				})
			}
		}
	}
}

// TestGoldenServerBodies replays a fixed request sequence against an
// in-process server and digests every status line and body byte. Repeated
// requests are part of the sequence, so the cache-hit bodies are pinned
// too.
func TestGoldenServerBodies(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	g := goldenGraphs(t)["copying"]
	c, err := simpush.NewClient(g, simpush.Options{Epsilon: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := server.New(server.Config{Client: c})
	if err != nil {
		t.Fatal(err)
	}
	requests := []struct{ method, target, body string }{
		{"GET", "/v1/single-source?node=7&seed=5", ""},
		{"GET", "/v1/single-source?node=7&seed=5", ""},
		{"GET", "/v1/single-source?node=123&seed=5&eps=0.02&dense=1", ""},
		{"GET", "/v1/topk?node=7&k=10&seed=5", ""},
		{"GET", "/v1/topk?node=999&k=3&seed=6&eps=0.02", ""},
		{"GET", "/v1/pair?u=7&v=123&seed=5", ""},
		{"GET", "/v1/pair?u=0&v=1499&seed=9&eps=0.02", ""},
		{"POST", "/v1/batch", `{"nodes":[7,123,999,7],"seed":5}`},
		{"POST", "/v1/batch", `{"nodes":[0,1499],"k":5,"seed":5,"eps":0.02}`},
	}
	d := newDigest()
	for _, rq := range requests {
		var body io.Reader
		if rq.body != "" {
			body = strings.NewReader(rq.body)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.target, body))
		if rec.Code != 200 {
			t.Fatalf("%s %s = %d: %s", rq.method, rq.target, rec.Code, rec.Body)
		}
		fmt.Fprintf(d.h, "%s %s %d\n", rq.method, rq.target, rec.Code)
		d.h.Write(rec.Body.Bytes())
	}
	if got := d.sum(); got != goldenServer {
		t.Errorf("digest = %s, want %s", got, goldenServer)
	}
}
