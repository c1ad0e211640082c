package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/simrank/simpush/internal/gen"
)

// The served graph: internal/gen's twitter-sim at scale 1 (n=100,000,
// m≈2.8M), its node ids relabelled by a fixed seeded permutation. The
// generator numbers hubs first, and at ε=0.02 ids 0–100 answer with the
// self-only row (L=0), so popularity skew over raw ids would measure
// trivial queries. The graph is the same for every --seed; the seed only
// drives traffic.
const (
	graphDataset = "twitter-sim"
	graphScale   = 1.0
	relabelSeed  = 0x7e1abe1
)

// graphFile is the edge-list file every replica and the in-process checks
// load.
type graphFile struct {
	path   string
	sha256 string
}

// ensureGraph writes the relabelled graph under dir, unless a file built
// from the same generator sources is already there and still matches its
// recorded checksum.
func ensureGraph(root, dir string) (graphFile, error) {
	key, err := sourceDigest(root, "internal/gen", "internal/graph")
	if err != nil {
		return graphFile{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return graphFile{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.txt", graphDataset, key[:16]))
	if want, err := os.ReadFile(path + ".sha256"); err == nil {
		if got, err := fileDigest(path); err == nil && got == strings.TrimSpace(string(want)) {
			return graphFile{path: path, sha256: got}, nil
		}
	}
	ds, err := gen.ByName(graphDataset)
	if err != nil {
		return graphFile{}, err
	}
	g, err := ds.Generate(graphScale)
	if err != nil {
		return graphFile{}, err
	}
	perm := rand.New(rand.NewPCG(relabelSeed, 0)).Perm(int(g.N()))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return graphFile{}, err
	}
	h := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	var line []byte
	g.Edges(func(from, to int32) {
		line = strconv.AppendInt(line[:0], int64(perm[from]), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(perm[to]), 10)
		line = append(line, '\n')
		_, _ = w.Write(line) // a failed write resurfaces from Flush below
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return graphFile{}, err
	}
	if err := f.Close(); err != nil {
		return graphFile{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return graphFile{}, err
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if err := os.WriteFile(path+".sha256", []byte(sum+"\n"), 0o644); err != nil {
		return graphFile{}, err
	}
	return graphFile{path: path, sha256: sum}, nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sourceDigest hashes the non-test Go files of the given directories
// (relative to root, recursively), in path order.
func sourceDigest(root string, dirs ...string) (string, error) {
	var files []string
	for _, d := range dirs {
		err := filepath.WalkDir(filepath.Join(root, d), func(p string, e os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				switch e.Name() {
				case ".git", ".bench_build", "perfbench", "testdata":
					if p != filepath.Join(root, d) {
						return filepath.SkipDir
					}
				}
				return nil
			}
			if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") || e.Name() == "go.mod" {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		raw, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
