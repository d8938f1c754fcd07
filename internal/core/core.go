// Package core orchestrates the off-target search: it expands guides
// into both-strand pattern specs, instantiates the requested execution
// engine (measured CPU engines or modeled accelerator platforms),
// drives the scan across chromosomes, and resolves events into verified
// sites. This is the layer the public crisprscan API wraps.
package core

import (
	"context"
	"fmt"

	"github.com/cap-repro/crisprscan/internal/ap"
	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/casoffinder"
	"github.com/cap-repro/crisprscan/internal/casot"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fpga"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
	"github.com/cap-repro/crisprscan/internal/infant"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// EngineKind selects the execution platform.
type EngineKind string

// The six systems of the paper's evaluation, plus auxiliary variants.
const (
	// EngineHyperscan is the measured CPU automata engine, using the
	// HyperScan-style literal-prefilter hybrid path.
	EngineHyperscan EngineKind = "hyperscan"
	// EngineHyperscanBitap and EngineHyperscanNFA select its
	// alternative execution paths.
	EngineHyperscanBitap EngineKind = "hyperscan-bitap"
	EngineHyperscanNFA   EngineKind = "hyperscan-nfa"
	// EngineCasOffinder is the measured CPU form of the brute-force
	// baseline; EngineCasOffinderGPU adds the analytic GPU timing model.
	EngineCasOffinder    EngineKind = "cas-offinder"
	EngineCasOffinderGPU EngineKind = "cas-offinder-gpu"
	// EngineCasOT is the measured single-thread baseline;
	// EngineCasOTIndex its seed-index variant.
	EngineCasOT      EngineKind = "casot"
	EngineCasOTIndex EngineKind = "casot-index"
	// EngineSeedIndex is the pigeonhole seed-index engine: bound to a
	// persistent genome index via Params.SeedIndex it queries candidate
	// loci instead of rescanning the genome; without one it
	// self-indexes per chromosome through the identical query path.
	EngineSeedIndex EngineKind = "seed-index"
	// EngineAP, EngineFPGA and EngineInfant are the modeled accelerator
	// platforms.
	EngineAP     EngineKind = "ap"
	EngineFPGA   EngineKind = "fpga"
	EngineInfant EngineKind = "infant2"
)

// AllEngines lists every selectable engine kind.
var AllEngines = []EngineKind{
	EngineHyperscan, EngineHyperscanBitap, EngineHyperscanNFA,
	EngineCasOffinder, EngineCasOffinderGPU,
	EngineCasOT, EngineCasOTIndex,
	EngineSeedIndex,
	EngineAP, EngineFPGA, EngineInfant,
}

// Params configures a search.
type Params struct {
	// MaxMismatches is the spacer Hamming budget k.
	MaxMismatches int
	// PAM is the IUPAC PAM string (default NGG).
	PAM string
	// AltPAMs lists additional accepted PAM patterns (for example NAG
	// alongside NGG); each must have the same length as PAM.
	AltPAMs []string
	// PAM5 places the PAM 5' of the spacer on the plus strand — the
	// Cas12a/Cpf1 geometry (e.g. PAM "TTTV"). Default is Cas9's 3' PAM.
	PAM5 bool
	// Region restricts the search to "chrom" or "chrom:start-end"
	// (0-based half-open). Only windows entirely inside the region are
	// reported; positions stay in full-chromosome coordinates.
	Region string
	// PlusStrandOnly restricts the search to the forward strand
	// (both strands is the default and the paper's setting).
	PlusStrandOnly bool
	// Engine selects the platform (default EngineHyperscan).
	Engine EngineKind
	// Workers sets data-parallel width for engines that support it
	// (default 1, matching the paper's single-thread CPU baselines).
	Workers int
	// SeedLen / MaxSeedMismatches configure CasOT's seed constraint.
	// Zero values mean "no seed constraint" (seed budget = k), the
	// setting under which all engines return identical sites.
	SeedLen           int
	MaxSeedMismatches int
	// MergeStates / Stride2 toggle the spatial-platform optimizations.
	MergeStates bool
	Stride2     bool
	// SeedIndex, when non-nil, binds EngineSeedIndex to a persistent
	// genome index built offline (cmd/genomeindex): scans touch only
	// candidate loci instead of re-walking the genome. Nil makes the
	// engine self-index per chromosome. Other engines ignore it.
	SeedIndex *seedindex.Index
	// Metrics, when non-nil, is the recorder the search reports into —
	// callers provide one to attach a Tracer or to aggregate several
	// searches into one recorder. When nil the orchestrator creates a
	// private recorder; either way every Result carries a Snapshot.
	Metrics *metrics.Recorder
	// Progress, when non-nil, is the live progress tracker the search
	// advances: per-chunk byte counts from the worker pool, chromosome
	// completion from the orchestrator, and (for in-memory searches) the
	// exact genome-size denominator. Snapshot it from another goroutine
	// for live progress/ETA. Nil disables tracking at the cost of one
	// nil check per chunk.
	Progress *metrics.Progress
}

func (p *Params) defaults() {
	if p.PAM == "" {
		p.PAM = "NGG"
	}
	if p.Engine == "" {
		p.Engine = EngineHyperscan
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	if p.Metrics == nil {
		p.Metrics = metrics.NewRecorder()
	}
	// The worker pool only sees the recorder, so the progress tracker
	// rides on it (a nil tracker stays a no-op sink).
	p.Metrics.SetProgress(p.Progress)
}

// Stats describes one search execution.
type Stats struct {
	Engine string
	// ElapsedSec is measured wall-clock for the scan (all engines run
	// functionally; for modeled platforms this is simulation time, not
	// device time).
	ElapsedSec float64
	// Events is the raw match-event count before deduplication.
	Events int
	// BytesScanned is the total number of reference bases streamed
	// through the engine (the throughput denominator in tables).
	BytesScanned int
	// Modeled holds the analytic device-time breakdown for modeled
	// platforms (nil for measured engines).
	Modeled *arch.Breakdown
	// Resources holds spatial resource usage for modeled platforms.
	Resources *arch.ResourceUsage
	// Metrics is the instrumentation snapshot for this execution:
	// per-phase timings, event counters and the chunk-latency sketch
	// (see metrics.Snapshot). Populated on every Search* result; when
	// the caller supplied Params.Metrics, the snapshot covers everything
	// that recorder accumulated, including prior searches.
	Metrics *metrics.Snapshot
}

// Result is a completed search.
type Result struct {
	Sites []report.Site
	Stats Stats
}

// BuildSpecs expands guides into engine pattern specs: one plus-strand
// spec per guide and, unless plusOnly, one minus-strand spec whose
// window is the reverse complement with the PAM side flipped. Codes
// follow report.CodeFor.
func BuildSpecs(guides []dna.Pattern, pam dna.Pattern, k int, plusOnly bool) []arch.PatternSpec {
	return BuildSpecsOriented(guides, pam, k, plusOnly, false)
}

// BuildSpecsOriented is BuildSpecs with a selectable plus-strand PAM
// side: pam5 = true compiles Cas12a-style patterns whose PAM precedes
// the spacer.
func BuildSpecsOriented(guides []dna.Pattern, pam dna.Pattern, k int, plusOnly, pam5 bool) []arch.PatternSpec {
	var specs []arch.PatternSpec
	for gi, g := range guides {
		plus := arch.PatternSpec{Spacer: g, PAM: pam, PAMLeft: pam5, K: k, Code: report.CodeFor(gi, '+')}
		specs = append(specs, plus)
		if !plusOnly {
			specs = append(specs, plus.MinusSpec(report.CodeFor(gi, '-')))
		}
	}
	return specs
}

// NewEngine instantiates the requested engine for the spec set.
func NewEngine(kind EngineKind, specs []arch.PatternSpec, p Params) (arch.Engine, error) {
	switch kind {
	case EngineHyperscan, EngineHyperscanBitap:
		mode := hscan.ModePrefilter
		if kind == EngineHyperscanBitap {
			mode = hscan.ModeBitap
		}
		e, err := hscan.New(specs, mode)
		if err != nil {
			return nil, err
		}
		e.Parallelism = p.Workers
		return e, nil
	case EngineHyperscanNFA:
		e, err := arch.NewNFAEngine(string(kind), specs, arch.NetworkOptions{Merge: true})
		if err != nil {
			return nil, err
		}
		e.Workers = p.Workers
		return e, nil
	case EngineCasOffinder:
		return casoffinder.New(specs, p.Workers)
	case EngineCasOffinderGPU:
		m, err := casoffinder.NewGPUModel(specs, casoffinder.DefaultGPU)
		if err != nil {
			return nil, err
		}
		m.Workers = p.Workers
		return m, nil
	case EngineCasOT, EngineCasOTIndex:
		opt := casot.Options{SeedLen: p.SeedLen, MaxSeedMismatches: p.MaxSeedMismatches}
		if opt.SeedLen == 0 {
			// No seed constraint: budgets equal the total budget so the
			// constraint is inert.
			opt.MaxSeedMismatches = p.MaxMismatches
		}
		if kind == EngineCasOTIndex {
			if opt.SeedLen == 0 {
				opt.SeedLen = min(12, len(specs[0].Spacer))
			}
			return casot.NewIndex(specs, opt)
		}
		return casot.New(specs, opt)
	case EngineSeedIndex:
		e, err := seedindex.New(specs, p.SeedIndex, seedindex.Options{})
		if err != nil {
			return nil, err
		}
		e.Workers = p.Workers
		return e, nil
	case EngineAP:
		m, err := ap.Compile(specs, ap.Options{MergeStates: p.MergeStates, Stride2: p.Stride2})
		if err != nil {
			return nil, err
		}
		m.Workers = p.Workers
		return m, nil
	case EngineFPGA:
		m, err := fpga.Compile(specs, fpga.Options{MergeStates: p.MergeStates, Stride2: p.Stride2})
		if err != nil {
			return nil, err
		}
		m.Workers = p.Workers
		return m, nil
	case EngineInfant:
		m, err := infant.Compile(specs, infant.Options{MergeStates: p.MergeStates})
		if err != nil {
			return nil, err
		}
		m.Workers = p.Workers
		return m, nil
	}
	return nil, fmt.Errorf("core: unknown engine %q", kind)
}

// engineHook, when non-nil, wraps the freshly built engine before any
// scanning begins. Tests use it to splice fault-injecting engines into
// the orchestrator; production code must leave it nil.
var engineHook func(arch.Engine) arch.Engine

// prepared is what compile hands the scan drivers: the engine, the
// event resolver and, for modeled platforms, the device-time charge.
type prepared struct {
	engine   arch.Engine
	resolver *report.Resolver
	charge   *modeledCharge
}

// prepare validates params and builds the engine, resolver and charge
// shared by Search and SearchStream.
func prepare(guides []dna.Pattern, p *Params) (*prepared, error) {
	p.defaults()
	if len(guides) == 0 {
		return nil, fmt.Errorf("core: no guides")
	}
	pam, err := dna.ParsePattern(p.PAM)
	if err != nil {
		return nil, err
	}
	if p.MaxMismatches < 0 || p.MaxMismatches > len(guides[0]) {
		return nil, fmt.Errorf("core: mismatch budget %d out of range", p.MaxMismatches)
	}
	pams := []dna.Pattern{pam}
	for _, alt := range p.AltPAMs {
		ap, err := dna.ParsePattern(alt)
		if err != nil {
			return nil, err
		}
		if len(ap) != len(pam) {
			return nil, fmt.Errorf("core: alternative PAM %s length differs from %s", alt, p.PAM)
		}
		pams = append(pams, ap)
	}
	var specs []arch.PatternSpec
	for _, pm := range pams {
		specs = append(specs, BuildSpecsOriented(guides, pm, p.MaxMismatches, p.PlusStrandOnly, p.PAM5)...)
	}
	engine, err := NewEngine(p.Engine, specs, *p)
	if err != nil {
		return nil, err
	}
	// Install the recorder and the charge before any test hook wraps the
	// engine: a fault-injection wrapper must not hide the Instrumented or
	// Modeled interfaces.
	arch.SetMetrics(engine, p.Metrics)
	charge := newModeledCharge(engine, p.Metrics)
	if engineHook != nil {
		engine = engineHook(engine)
	}
	resolver, err := report.NewResolverOriented(guides, p.PAM5, pams...)
	if err != nil {
		return nil, err
	}
	return &prepared{engine: engine, resolver: resolver, charge: charge}, nil
}

// modeledCharge prices a modeled platform's scans; it is the one place
// modeled device time is charged. The one-time compile step is recorded
// when the charge is created, and every completed chromosome adds the
// model's breakdown for that chromosome's length and event count, both
// to the recorder and to the total that becomes Stats.Modeled. A nil
// charge (a measured engine) charges nothing.
type modeledCharge struct {
	model arch.Modeled
	rec   *metrics.Recorder
	total arch.Breakdown
}

func newModeledCharge(e arch.Engine, rec *metrics.Recorder) *modeledCharge {
	m, ok := e.(arch.Modeled)
	if !ok {
		return nil
	}
	compile := m.EstimateBreakdown(0, 0).Compile
	rec.SetModeledSeconds("compile", compile)
	return &modeledCharge{model: m, rec: rec, total: arch.Breakdown{Compile: compile}}
}

// chrom charges one completed chromosome of inputLen bases that
// produced events match events.
func (c *modeledCharge) chrom(inputLen, events int) {
	if c == nil {
		return
	}
	b := c.model.EstimateBreakdown(inputLen, events)
	c.rec.AddModeledSeconds("transfer", b.Transfer)
	c.rec.AddModeledSeconds("kernel", b.Kernel)
	c.rec.AddModeledSeconds("report", b.Report)
	b.Compile = 0
	c.total = c.total.Add(b)
}

// stamp sets the charged total and the device resources on st.
func (c *modeledCharge) stamp(st *Stats) {
	if c == nil {
		return
	}
	b, r := c.total, c.model.Resources()
	st.Modeled, st.Resources = &b, &r
}

// Search runs the full pipeline and returns verified, deduplicated,
// sorted sites. It is the ctx-less compatibility wrapper around
// SearchContext — the one place a background context enters the
// pipeline (see the ctxflow analyzer).
func Search(g *genome.Genome, guides []dna.Pattern, p Params) (*Result, error) {
	return SearchContext(context.Background(), g, guides, p)
}

// SearchContext is Search bounded by ctx. Cancellation and deadlines
// are honored between chromosomes here, and at chunk granularity inside
// the data-parallel CPU engines (which implement arch.ContextEngine).
// On cancellation the returned Result is non-nil and carries the sites
// and stats of the chromosomes completed before the abort, alongside an
// error wrapping context.Canceled / context.DeadlineExceeded.
func SearchContext(ctx context.Context, g *genome.Genome, guides []dna.Pattern, p Params) (*Result, error) {
	swCompile := metrics.NewStopwatch()
	endCompile := p.Metrics.TraceSpan("compile")
	pre, err := prepare(guides, &p)
	endCompile()
	if err != nil {
		return nil, err
	}
	engine := pre.engine
	rec := p.Metrics
	rec.AddPhaseNanos(metrics.PhaseCompile, swCompile.ElapsedNanos())
	offset := 0
	if p.Region != "" {
		region, err := ParseRegion(p.Region)
		if err != nil {
			return nil, err
		}
		g, offset, err = region.Slice(g)
		if err != nil {
			return nil, err
		}
	}
	col := report.NewCollector(pre.resolver)
	prog := p.Progress
	if prog.TotalBytes() == 0 {
		// In-memory searches know the exact denominator (after region
		// slicing); don't override a caller-supplied estimate.
		prog.SetTotalBytes(int64(g.TotalLen()))
	}
	prog.SetChromCount(len(g.Chroms))
	events, bytesScanned := 0, 0
	start := metrics.NewStopwatch()
	partial := func(scanErr error) (*Result, error) {
		endReport := rec.StartPhase(metrics.PhaseReport)
		sites := col.Sites()
		if offset != 0 {
			for i := range sites {
				sites[i].Pos += offset
			}
		}
		endReport()
		rec.Add(metrics.CounterSitesEmitted, int64(len(sites)))
		res := &Result{
			Sites: sites,
			Stats: Stats{Engine: engine.Name(), ElapsedSec: start.Seconds(), Events: events, BytesScanned: bytesScanned},
		}
		pre.charge.stamp(&res.Stats)
		res.Stats.Metrics = rec.Snapshot()
		return res, scanErr
	}
	for ci := range g.Chroms {
		c := &g.Chroms[ci]
		if err := ctx.Err(); err != nil {
			return partial(fmt.Errorf("core: search canceled after %d/%d chromosomes: %w", ci, len(g.Chroms), err))
		}
		var addErr error
		// Event resolution runs inline in the emit callback, so the
		// chromosome's verify share is measured per event and subtracted
		// from the scan stopwatch to get the pure prefilter time.
		var verifyNs int64
		chromEvents := 0
		prog.StartChrom(c.Name, int64(len(c.Seq)))
		endSpan := rec.TraceSpan("scan " + c.Name)
		swScan := metrics.NewStopwatch()
		err := scanChromSafe(ctx, engine, c, func(r automata.Report) {
			chromEvents++
			t0 := metrics.Now()
			if e := col.Add(c, r); e != nil && addErr == nil {
				addErr = e
			}
			verifyNs += metrics.Now() - t0
		})
		scanNs := swScan.ElapsedNanos()
		endSpan()
		events += chromEvents
		if err == nil {
			err = addErr
		}
		if err != nil {
			return partial(fmt.Errorf("core: chromosome %s: %w", c.Name, err))
		}
		rec.AddPhaseNanos(metrics.PhaseVerify, verifyNs)
		rec.AddPhaseNanos(metrics.PhasePrefilter, scanNs-verifyNs)
		pre.charge.chrom(len(c.Seq), chromEvents)
		// Bytes are counted here, per completed chromosome — never per
		// chunk, where overlap regions would double-count (see the
		// accounting regression tests).
		bytesScanned += len(c.Seq)
		rec.Add(metrics.CounterBytesScanned, int64(len(c.Seq)))
		prog.FinishChrom(c.Name)
	}
	prog.Finish()
	return partial(nil)
}

// scanChromSafe dispatches one chromosome scan through the ctx-aware
// engine interface when available and converts any engine panic that
// escapes to the orchestrator goroutine into an error, so a buggy or
// fault-injected engine degrades to a failed search rather than a
// process crash. (Panics inside engine worker goroutines are already
// recovered by arch.ChunkScan.)
func scanChromSafe(ctx context.Context, engine arch.Engine, c *genome.Chromosome, emit func(automata.Report)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: engine %s panicked scanning %s: %v", engine.Name(), c.Name, r)
		}
	}()
	return arch.ScanChrom(ctx, engine, c, emit)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
