package core

import (
	"context"
	"fmt"
	"io"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
)

// StreamControl customizes SearchStreamContext for checkpoint/resume.
// The zero value (or a nil pointer) streams every chromosome with no
// completion hook.
type StreamControl struct {
	// SkipChrom, when non-nil, is consulted per chromosome: returning
	// true means the chromosome is already complete (a resumed run) —
	// it is parsed and duplicate-checked but neither scanned, counted in
	// stats, nor yielded.
	SkipChrom func(name string) bool
	// ChromDone, when non-nil, runs after every non-skipped chromosome's
	// sites have all been yielded: name, the number of sites the
	// chromosome produced, and the cumulative reference bases scanned so
	// far (Stats.BytesScanned at that point). Returning an error aborts
	// the stream. Checkpoint journaling hangs off this hook.
	ChromDone func(name string, sites int, scannedBases int64) error
}

// SearchStream runs the search over a FASTA stream one chromosome at a
// time, so memory stays proportional to the largest chromosome rather
// than the whole genome — the mode a 3.1 Gbp reference requires. Sites
// are emitted to the callback per chromosome (verified and
// deduplicated within the chromosome); stats are returned at the end.
// It is the ctx-less compatibility wrapper around SearchStreamContext.
func SearchStream(r io.Reader, guides []dna.Pattern, p Params, yield func(report.Site) error) (*Stats, error) {
	return SearchStreamContext(context.Background(), r, guides, p, nil, yield)
}

// streamScan bundles the state one chromosome-at-a-time search carries
// across chromosomes; SearchStreamContext (FASTA stream) and
// SearchGenomeStreamContext (resident genome) share it, so both drivers
// produce byte-identical output for the same reference.
type streamScan struct {
	*prepared
	mrec  *metrics.Recorder
	prog  *metrics.Progress
	ctrl  *StreamControl
	yield func(report.Site) error
	stats *Stats
}

// newStreamScan compiles the engine and resolver for a streaming-shaped
// search; the compile phase is charged to the recorder exactly as the
// in-memory path does.
func newStreamScan(guides []dna.Pattern, p *Params, ctrl *StreamControl, yield func(report.Site) error) (*streamScan, error) {
	if yield == nil {
		return nil, fmt.Errorf("core: nil yield callback")
	}
	if ctrl == nil {
		ctrl = &StreamControl{}
	}
	swCompile := metrics.NewStopwatch()
	endCompile := p.Metrics.TraceSpan("compile")
	pre, err := prepare(guides, p)
	endCompile()
	if err != nil {
		return nil, err
	}
	mrec := p.Metrics
	mrec.AddPhaseNanos(metrics.PhaseCompile, swCompile.ElapsedNanos())
	return &streamScan{
		prepared: pre,
		mrec:     mrec,
		prog:     p.Progress,
		ctrl:     ctrl,
		yield:    yield,
		//crisprlint:allow statsdiscipline accumulated across methods: Events in chrom, BytesScanned/ElapsedSec in finish
		stats: &Stats{Engine: pre.engine.Name()},
	}, nil
}

// chrom scans one chromosome, yields its verified sites, and fires the
// ChromDone hook. Every site delivered belongs to a fully completed
// chromosome: an aborted scan yields nothing, which is what makes
// chromosome-granularity checkpointing sound.
func (s *streamScan) chrom(ctx context.Context, chrom *genome.Chromosome) error {
	s.prog.StartChrom(chrom.Name, int64(len(chrom.Seq)))
	col := report.NewCollector(s.resolver)
	var addErr error
	// Per-event resolution time is measured inline and subtracted
	// from the scan stopwatch, as in SearchContext.
	var verifyNs int64
	events := 0
	endSpan := s.mrec.TraceSpan("scan " + chrom.Name)
	swScan := metrics.NewStopwatch()
	err := scanChromSafe(ctx, s.engine, chrom, func(ev automata.Report) {
		events++
		t0 := metrics.Now()
		if e := col.Add(chrom, ev); e != nil && addErr == nil {
			addErr = e
		}
		verifyNs += metrics.Now() - t0
	})
	scanNs := swScan.ElapsedNanos()
	endSpan()
	s.stats.Events += events
	if err == nil {
		err = addErr
	}
	if err != nil {
		return fmt.Errorf("core: chromosome %s: %w", chrom.Name, err)
	}
	s.mrec.AddPhaseNanos(metrics.PhaseVerify, verifyNs)
	s.mrec.AddPhaseNanos(metrics.PhasePrefilter, scanNs-verifyNs)
	s.charge.chrom(len(chrom.Seq), events)
	// Bytes count once per completed chromosome (never per chunk,
	// where overlap would double-count).
	s.stats.BytesScanned += len(chrom.Seq)
	s.mrec.Add(metrics.CounterBytesScanned, int64(len(chrom.Seq)))
	endReport := s.mrec.StartPhase(metrics.PhaseReport)
	sites := col.Sites()
	for _, site := range sites {
		if err := s.yield(site); err != nil {
			endReport()
			return fmt.Errorf("core: yield on %s: %w", chrom.Name, err)
		}
	}
	endReport()
	s.mrec.Add(metrics.CounterSitesEmitted, int64(len(sites)))
	if s.ctrl.ChromDone != nil {
		if err := s.ctrl.ChromDone(chrom.Name, len(sites), int64(s.stats.BytesScanned)); err != nil {
			return fmt.Errorf("core: completing %s: %w", chrom.Name, err)
		}
	}
	s.prog.FinishChrom(chrom.Name)
	return nil
}

// finish stamps elapsed time and the metrics snapshot onto the stats.
func (s *streamScan) finish(start metrics.Stopwatch, streamErr error) (*Stats, error) {
	s.stats.ElapsedSec = start.Seconds()
	s.charge.stamp(s.stats)
	s.stats.Metrics = s.mrec.Snapshot()
	return s.stats, streamErr
}

// SearchStreamContext is SearchStream bounded by ctx and tunable with
// ctrl. Cancellation is honored between chromosomes here and at chunk
// granularity inside the data-parallel engines; an aborted
// chromosome yields no sites, so every site delivered to yield belongs
// to a fully completed chromosome. On any error the returned Stats is
// non-nil and describes the work completed before the failure.
func SearchStreamContext(ctx context.Context, r io.Reader, guides []dna.Pattern, p Params, ctrl *StreamControl, yield func(report.Site) error) (*Stats, error) {
	s, err := newStreamScan(guides, &p, ctrl, yield)
	if err != nil {
		return nil, err
	}
	fr := fasta.NewReader(r)
	start := metrics.NewStopwatch()
	seen := make(map[string]bool)
	for {
		if err := ctx.Err(); err != nil {
			return s.finish(start, fmt.Errorf("core: stream search canceled after %d chromosomes: %w", len(seen), err))
		}
		// The streaming pipeline decodes inside the measured region, so
		// FASTA parsing and sequence packing are charged to PhaseLoad.
		endLoad := s.mrec.StartPhase(metrics.PhaseLoad)
		rec, err := fr.Next()
		if err == io.EOF {
			endLoad()
			break
		}
		if err != nil {
			endLoad()
			return s.finish(start, fmt.Errorf("core: reading genome stream: %w", err))
		}
		if seen[rec.ID] {
			endLoad()
			return s.finish(start, fmt.Errorf("core: duplicate chromosome %q in stream", rec.ID))
		}
		seen[rec.ID] = true
		if s.ctrl.SkipChrom != nil && s.ctrl.SkipChrom(rec.ID) {
			endLoad()
			continue
		}
		seq, _ := dna.ParseSeq(string(rec.Seq))
		chrom := genome.Chromosome{Name: rec.ID, Seq: seq, Packed: dna.Pack(seq)}
		endLoad()
		if err := s.chrom(ctx, &chrom); err != nil {
			return s.finish(start, err)
		}
	}
	s.prog.Finish()
	return s.finish(start, nil)
}

// SearchGenomeStreamContext runs the streaming-shaped search over an
// already-loaded genome: chromosomes are visited in genome order through
// the same per-chromosome pipeline as SearchStreamContext, so the two
// drivers yield identical sites in identical order for the same
// reference — which lets a long-lived service keep one parsed genome
// resident and share it across concurrent checkpointed scans instead of
// re-reading FASTA per request. SkipChrom and ChromDone behave exactly
// as in the stream driver; PhaseLoad is not charged (the genome is
// already decoded and packed).
func SearchGenomeStreamContext(ctx context.Context, g *genome.Genome, guides []dna.Pattern, p Params, ctrl *StreamControl, yield func(report.Site) error) (*Stats, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil genome")
	}
	s, err := newStreamScan(guides, &p, ctrl, yield)
	if err != nil {
		return nil, err
	}
	start := metrics.NewStopwatch()
	for i := range g.Chroms {
		chrom := &g.Chroms[i]
		if err := ctx.Err(); err != nil {
			return s.finish(start, fmt.Errorf("core: stream search canceled after %d chromosomes: %w", i, err))
		}
		if s.ctrl.SkipChrom != nil && s.ctrl.SkipChrom(chrom.Name) {
			continue
		}
		if err := s.chrom(ctx, chrom); err != nil {
			return s.finish(start, err)
		}
	}
	s.prog.Finish()
	return s.finish(start, nil)
}
