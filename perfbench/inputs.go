package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/fasta"
)

// shape fixes the inputs of one workload. Every job scans the same
// reference with one guide set; jobs cycle through Sets guide sets of
// Guides guides each, drawn from a seeded pool sampled at PAM sites.
type shape struct {
	Chroms   int // chromosomes (at most 9, so name order is genome order)
	ChromLen int // bases per chromosome
	Guides   int // guides per job
	Pool     int // guide pool the sets are drawn from
	Sets     int // distinct guide sets (and reference digests)
	K        int // mismatch budget
	Index    bool
}

// workload is one named benchmark scenario.
type workload struct {
	Name  string
	Why   string
	Shape shape
}

var workloads = []workload{
	{
		Name:  "batch-many-guides",
		Why:   "CLI path with many guides: the per-PAM-hit x every-guide confirm loop in hscan dominates",
		Shape: shape{Chroms: 4, ChromLen: 125_000, Guides: 1000, Pool: 4000, Sets: 4, K: 3},
	},
	{
		Name:  "batch-long-genome",
		Why:   "CLI path with few guides over a long genome: FASTA load, packing and the PAM pass dominate",
		Shape: shape{Chroms: 8, ChromLen: 500_000, Guides: 10, Pool: 200, Sets: 4, K: 3},
	},
	{
		Name:  "serve-small-jobs",
		Why:   "in-process scan service with small jobs: admission, queue, job store and checkpoint overhead dominate",
		Shape: shape{Chroms: 4, ChromLen: 250_000, Guides: 4, Pool: 400, Sets: 16, K: 3},
	},
	{
		Name:  "index-query",
		Why:   "prebuilt .csix seed index: index load, staleness guard and candidate query, with no genome pass",
		Shape: shape{Chroms: 8, ChromLen: 2_000_000, Guides: 100, Pool: 1000, Sets: 4, K: 3, Index: true},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// manifest is what the input generator hands the workload process:
// file paths, guide sets and the reference digest of each set's TSV.
type manifest struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Dir       string               `json:"dir"`
	Genome    string               `json:"genome"`          // FASTA path
	Index     string               `json:"index,omitempty"` // .csix path
	K         int                  `json:"k"`
	GuideSets [][]crisprscan.Guide `json:"guide_sets"`
	Digests   []string             `json:"digests"` // hex SHA-256 of each set's reference TSV
	Bases     int                  `json:"bases"`
	Spans     string               `json:"spans,omitempty"` // where a traced run writes its spans
}

const spacerLen = 20

// generate writes the workload's inputs for seed under dir and returns
// their manifest. The same seed gives byte-identical files. The
// reference digests come from the brute-force cas-offinder engine, a
// different algorithm from every engine the workloads time.
func generate(dir string, w workload, seed int64) (*manifest, error) {
	sh := w.Shape
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{
		Seed: seed, NumChroms: sh.Chroms, ChromLen: sh.ChromLen, RepeatRate: 0.05,
	})
	pool, err := crisprscan.SampleGuides(g, sh.Pool, spacerLen, "NGG", seed+1)
	if err != nil {
		return nil, fmt.Errorf("sampling guides: %w", err)
	}
	rng := rand.New(rand.NewSource(seed + 2))
	m := &manifest{Workload: w.Name, Seed: seed, Dir: dir, K: sh.K, Bases: g.TotalLen()}
	for s := 0; s < sh.Sets; s++ {
		perm := rng.Perm(len(pool))[:sh.Guides]
		set := make([]crisprscan.Guide, len(perm))
		for i, p := range perm {
			set[i] = pool[p]
		}
		m.GuideSets = append(m.GuideSets, set)
	}
	m.Genome = filepath.Join(dir, "genome.fa")
	if err := fasta.WriteFile(m.Genome, g.ToFasta()); err != nil {
		return nil, fmt.Errorf("writing genome: %w", err)
	}
	if sh.Index {
		ix, err := crisprscan.BuildSeedIndex(g, 0)
		if err != nil {
			return nil, fmt.Errorf("building seed index: %w", err)
		}
		m.Index = filepath.Join(dir, "genome.csix")
		if err := ix.WriteFile(m.Index); err != nil {
			return nil, fmt.Errorf("writing seed index: %w", err)
		}
	}
	for _, set := range m.GuideSets {
		res, err := crisprscan.Search(g, set, crisprscan.Params{
			MaxMismatches: sh.K, Engine: crisprscan.EngineCasOffinder, Workers: runtime.NumCPU(),
		})
		if err != nil {
			return nil, fmt.Errorf("reference search: %w", err)
		}
		var buf bytes.Buffer
		if err := crisprscan.WriteSitesTSV(&buf, res.Sites); err != nil {
			return nil, err
		}
		m.Digests = append(m.Digests, digest(&buf))
	}
	return m, nil
}

func digest(r io.Reader) string {
	h := sha256.New()
	_, _ = io.Copy(h, r) // reads from memory or a just-written local file
	return hex.EncodeToString(h.Sum(nil))
}

// checkOutput hashes the output file at path and compares it with the
// reference digest.
func checkOutput(path, want string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("reading output: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return fmt.Errorf("reading output %s: %w", path, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		return fmt.Errorf("output %s: digest %.12s, reference %.12s", path, got, want)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
