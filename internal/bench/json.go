package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// BenchSchema identifies the machine-readable benchmark report format.
// Bump the suffix when a field changes meaning or shape; /2 added the
// chunk-latency histogram (with explicit non-zero log2 buckets) to
// every entry.
const BenchSchema = "crisprscan-bench/2"

// BenchEntry is one cell of the benchmark matrix: one engine run on one
// pinned workload, with throughput, the per-phase breakdown from the
// metrics snapshot, and allocation deltas.
type BenchEntry struct {
	// Engine is the core.EngineKind that ran.
	Engine string `json:"engine"`
	// GenomeLen / Guides / K pin the workload dimensions.
	GenomeLen int `json:"genome_len"`
	Guides    int `json:"guides"`
	K         int `json:"k"`
	// Seconds is the scan wall-clock (Stats.ElapsedSec).
	Seconds float64 `json:"seconds"`
	// MBPerSec is BytesScanned / Seconds in MB/s — the paper's
	// throughput metric.
	MBPerSec float64 `json:"mb_per_sec"`
	// Events / Sites are the raw and deduplicated result counts; they
	// double as a correctness fingerprint across trajectory points.
	Events int `json:"events"`
	Sites  int `json:"sites"`
	// Phases is the per-phase wall-clock breakdown.
	Phases metrics.PhaseSeconds `json:"phases_sec"`
	// Counters holds the scan's event counters.
	Counters metrics.CounterTotals `json:"counters"`
	// ChunkLatency is the per-chunk latency distribution, including the
	// non-zero log2 buckets (zero Count for unchunked engines).
	ChunkLatency metrics.HistogramSnapshot `json:"chunk_latency"`
	// ModeledSec carries the accelerator models' analytic device-time
	// steps; empty for measured engines.
	ModeledSec map[string]float64 `json:"modeled_sec,omitempty"`
	// AllocBytes / AllocObjects are heap-allocation deltas across the
	// run (runtime.MemStats TotalAlloc / Mallocs).
	AllocBytes   int64 `json:"alloc_bytes"`
	AllocObjects int64 `json:"alloc_objects"`
}

// Key identifies the matrix cell independently of measured values, so
// two reports can be joined for comparison.
func (e *BenchEntry) Key() string {
	return fmt.Sprintf("%s/n%d/g%d/k%d", e.Engine, e.GenomeLen, e.Guides, e.K)
}

// BenchReport is the whole benchmark trajectory document (BENCH_*.json).
type BenchReport struct {
	Schema    string `json:"schema"`
	Scale     string `json:"scale"`
	Seed      int64  `json:"seed"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GeneratedAt is an RFC3339 UTC timestamp (informational only; the
	// compare logic never reads it).
	GeneratedAt string       `json:"generated_at"`
	Entries     []BenchEntry `json:"entries"`
}

// MatrixCase is one planned cell of the workload matrix.
type MatrixCase struct {
	Engine    core.EngineKind
	GenomeLen int
	Guides    int
	K         int
	// Prebuilt runs the seed-index engine against an index built before
	// the timer starts — the deployed shape, where indexing is paid once
	// offline and queries are the recurring cost. The cell's key gets a
	// "-prebuilt" suffix so it never collides with the self-indexing row.
	Prebuilt bool
}

// Label is the engine name as reported: prebuilt cells carry a suffix
// so they key separately from the self-indexing run of the same engine.
func (mc MatrixCase) Label() string {
	if mc.Prebuilt {
		return string(mc.Engine) + "-prebuilt"
	}
	return string(mc.Engine)
}

// Matrix expands a scale profile into the pinned benchmark matrix:
// every engine at the profile's default dimensions, plus k, guide-count
// and genome-size sweeps on the flagship hyperscan engine.
func Matrix(s Scale) []MatrixCase {
	var cases []MatrixCase
	for _, e := range core.AllEngines {
		cases = append(cases, MatrixCase{Engine: e, GenomeLen: s.GenomeLen, Guides: s.Guides, K: s.K})
	}
	sweep := core.EngineHyperscan
	for _, k := range s.KSet {
		if k != s.K {
			cases = append(cases, MatrixCase{Engine: sweep, GenomeLen: s.GenomeLen, Guides: s.Guides, K: k})
		}
	}
	for _, n := range s.GuideSet {
		if n != s.Guides {
			cases = append(cases, MatrixCase{Engine: sweep, GenomeLen: s.GenomeLen, Guides: n, K: s.K})
		}
	}
	for _, gl := range s.GenomeSet {
		if gl != s.GenomeLen {
			cases = append(cases, MatrixCase{Engine: sweep, GenomeLen: gl, Guides: s.Guides, K: s.K})
		}
	}
	// The prebuilt seed-index cell: the smallest guide set at default
	// genome and k — the query-dominated workload a persistent index is
	// built for. The matching hyperscan cell (same dimensions) comes from
	// the guide-count sweep above, so reports carry the speedup pair.
	cases = append(cases, MatrixCase{Engine: core.EngineSeedIndex, GenomeLen: s.GenomeLen, Guides: s.GuideSet[0], K: s.K, Prebuilt: true})
	return cases
}

// RunCase executes one matrix cell end to end through the orchestrator
// (so the per-phase breakdown comes from the same instrumentation every
// production search carries) and returns its entry.
func RunCase(mc MatrixCase, seed int64) (BenchEntry, error) {
	w := NewWorkload(mc.GenomeLen, mc.Guides, mc.K, seed)
	rec := metrics.NewRecorder()
	p := core.Params{
		MaxMismatches: mc.K,
		PAM:           PAMString,
		Engine:        mc.Engine,
		Metrics:       rec,
	}
	if mc.Prebuilt {
		// Index construction happens before the measured search, exactly
		// as deployment pays it: once, offline, via genomeindex build.
		ix, err := seedindex.Build(w.Genome, 0)
		if err != nil {
			return BenchEntry{}, fmt.Errorf("bench: building seed index n=%d: %w", mc.GenomeLen, err)
		}
		p.Engine = core.EngineSeedIndex
		p.SeedIndex = ix
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := core.Search(w.Genome, w.Guides, p)
	if err != nil {
		return BenchEntry{}, fmt.Errorf("bench: %s n=%d g=%d k=%d: %w",
			mc.Engine, mc.GenomeLen, mc.Guides, mc.K, err)
	}
	runtime.ReadMemStats(&after)
	snap := res.Stats.Metrics
	entry := BenchEntry{
		Engine:       mc.Label(),
		GenomeLen:    mc.GenomeLen,
		Guides:       mc.Guides,
		K:            mc.K,
		Seconds:      res.Stats.ElapsedSec,
		Events:       res.Stats.Events,
		Sites:        len(res.Sites),
		Phases:       snap.Phases,
		Counters:     snap.Counters,
		ChunkLatency: snap.ChunkLatency,
		ModeledSec:   snap.ModeledSec,
		AllocBytes:   int64(after.TotalAlloc - before.TotalAlloc),
		AllocObjects: int64(after.Mallocs - before.Mallocs),
	}
	if res.Stats.ElapsedSec > 0 {
		entry.MBPerSec = float64(res.Stats.BytesScanned) / 1e6 / res.Stats.ElapsedSec
	}
	return entry, nil
}

// RunMatrix executes the whole matrix for a scale and assembles the
// report. progress, when non-nil, is called before each cell runs.
func RunMatrix(s Scale, seed int64, progress func(i, n int, mc MatrixCase)) (*BenchReport, error) {
	cases := Matrix(s)
	rep := &BenchReport{
		Schema:      BenchSchema,
		Scale:       s.Name,
		Seed:        seed,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GeneratedAt: metrics.Wall().UTC().Format(time.RFC3339),
	}
	for i, mc := range cases {
		if progress != nil {
			progress(i, len(cases), mc)
		}
		entry, err := RunCase(mc, seed)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, entry)
	}
	return rep, nil
}

// WriteJSON writes the report as stable, indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses a report and validates its schema tag.
func ReadBenchReport(rd io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("bench: unsupported report schema %q (want %q)", rep.Schema, BenchSchema)
	}
	return &rep, nil
}

// Regression is one matrix cell whose runtime grew beyond the allowed
// threshold relative to the baseline report.
type Regression struct {
	Key    string  `json:"key"`
	OldSec float64 `json:"old_sec"`
	NewSec float64 `json:"new_sec"`
	// Ratio is NewSec/OldSec; 1.15 means 15% slower.
	Ratio float64 `json:"ratio"`
}

// CompareOptions tunes Compare.
type CompareOptions struct {
	// Threshold is the allowed fractional slowdown: 0.15 flags cells
	// more than 15% slower than baseline. Zero means the default 0.15.
	Threshold float64
	// MinSeconds skips cells whose baseline time is below this floor —
	// sub-millisecond cells are dominated by noise, not by the code
	// under test. Negative disables the floor; zero means the default
	// 5ms.
	MinSeconds float64
}

func (o *CompareOptions) defaults() {
	if o.Threshold == 0 {
		o.Threshold = 0.15
	}
	if o.MinSeconds == 0 {
		o.MinSeconds = 0.005
	}
}

// Compare joins two reports by matrix-cell key and returns the cells of
// cur that regressed past the threshold relative to base. Cells present
// in only one report are ignored (the matrix may legitimately grow or
// shrink between trajectory points); Dropped lists the baseline's.
func Compare(base, cur *BenchReport, opt CompareOptions) []Regression {
	opt.defaults()
	old := make(map[string]*BenchEntry, len(base.Entries))
	for i := range base.Entries {
		old[base.Entries[i].Key()] = &base.Entries[i]
	}
	var regs []Regression
	for i := range cur.Entries {
		e := &cur.Entries[i]
		b, ok := old[e.Key()]
		if !ok || b.Seconds <= 0 || b.Seconds < opt.MinSeconds {
			continue
		}
		ratio := e.Seconds / b.Seconds
		if ratio > 1+opt.Threshold {
			regs = append(regs, Regression{Key: e.Key(), OldSec: b.Seconds, NewSec: e.Seconds, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs
}

// Dropped returns, sorted, the keys of base cells that cur no longer
// measures (a retired engine or a renamed cell). Compare cannot gate
// them, so callers print them rather than let them pass silently.
func Dropped(base, cur *BenchReport) []string {
	have := make(map[string]bool, len(cur.Entries))
	for i := range cur.Entries {
		have[cur.Entries[i].Key()] = true
	}
	var gone []string
	for i := range base.Entries {
		if k := base.Entries[i].Key(); !have[k] {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	return gone
}
