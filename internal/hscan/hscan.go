// Package hscan is the study's CPU automata engine — the stand-in for
// Intel HyperScan. Like HyperScan it is a hybrid: the default execution
// path (ModePrefilter) finds PAM literals first and confirms each
// candidate with the anchored mismatch automaton evaluated bit-parallel.
// ModeBitap runs the same automaton unanchored over the whole input (the
// Wu–Manber/bitap formulation, one 64-bit word per mismatch row, which is
// exactly the Hamming-lattice NFA evaluated breadth-first in registers)
// and serves as the reference the other engines are checked against; the
// NFA-bitset path is the shared arch.NFAEngine. Both modes execute for
// real, are wall-clock measured, and honor cancellation between chunks;
// the paper measured single-thread HyperScan, and this engine is
// likewise single-threaded unless Parallelism > 1.
package hscan

import (
	"context"
	"fmt"
	"runtime"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// Mode selects the execution path.
type Mode int

const (
	// ModeBitap is the register-resident bit-parallel mismatch automaton
	// run unanchored over the whole input, one pass per pattern.
	ModeBitap Mode = iota
	// ModePrefilter mirrors HyperScan's hybrid architecture: a shared
	// literal prefilter (the PAM, the one literal every pattern
	// contains) finds candidate anchors, and each candidate is confirmed
	// by evaluating the pattern's anchored mismatch automaton
	// bit-parallel (packed XOR/popcount, which computes exactly the
	// lattice automaton's accept condition at that alignment). This is
	// the fastest mode and the one the benchmark harness labels
	// "hyperscan". Both stages share work across patterns: the PAM test
	// runs 32 anchors per word over the packed genome, and at each PAM
	// hit a pigeonhole fragment table picks the few guides that can
	// match, so cost is one genome pass plus work proportional to PAM
	// hits x candidate guides rather than PAM hits x all guides. Groups
	// whose budget leaves no useful fragment geometry compare every
	// guide at every PAM hit.
	ModePrefilter
)

func (m Mode) String() string {
	switch m {
	case ModeBitap:
		return "bitap"
	case ModePrefilter:
		return "prefilter"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// PatternSpec aliases the engine-independent pattern description.
type PatternSpec = arch.PatternSpec

// maxBitapK is the largest mismatch budget ModeBitap compiles: its
// kernels keep one register row per mismatch count in a fixed
// [maxBitapK+1]uint64 array.
const maxBitapK = 7

// compiled is the bitap form of one pattern.
type compiled struct {
	eq       [dna.AlphabetSize]uint64 // eq[c] bit i: position i accepts base c
	subsMask uint64                   // bit i: position i may be consumed as a mismatch
	accept   uint64                   // bit L-1
	k        int
	code     int32
	length   int
}

// Engine is a compiled multi-pattern scanner.
type Engine struct {
	mode Mode
	pats []compiled

	// Parallelism > 1 splits each chromosome into overlapping chunks
	// scanned by worker goroutines. The default of 1 mirrors the paper's
	// single-thread HyperScan measurements.
	Parallelism int

	// Prefilter path state: one group per (PAM, orientation).
	preGroups []prefilterGroup
	preSite   int

	// Packed bitap state (two patterns per word), built when ModeBitap
	// patterns share geometry.
	packed []packedPair

	// chunkHook, when set, runs at the start of every pool chunk with
	// the chunk's [lo, hi) bounds. Tests use it to inject panics and to
	// trigger cancellation mid-scan; it is nil in production.
	chunkHook func(lo, hi int)

	// rec receives scan metrics; nil (the default) disables
	// instrumentation. Engines flush locally accumulated counts once
	// per chunk, so the hot loops never touch atomics per position.
	rec *metrics.Recorder
}

// SetMetrics implements arch.Instrumented.
func (e *Engine) SetMetrics(rec *metrics.Recorder) { e.rec = rec }

// New compiles the pattern set for the given mode.
func New(specs []PatternSpec, mode Mode) (*Engine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("hscan: no patterns")
	}
	e := &Engine{mode: mode, Parallelism: 1}
	for i, spec := range specs {
		L := spec.SiteLen()
		if L == 0 || L > 64 {
			return nil, fmt.Errorf("hscan: pattern %d has length %d, need 1..64", i, L)
		}
		if spec.K < 0 || spec.K > len(spec.Spacer) {
			return nil, fmt.Errorf("hscan: pattern %d mismatch budget %d out of range", i, spec.K)
		}
		if mode == ModeBitap && spec.K > maxBitapK {
			return nil, fmt.Errorf("hscan: bitap mode supports mismatch budgets up to %d, pattern %d has %d", maxBitapK, i, spec.K)
		}
		var c compiled
		c.k = spec.K
		c.code = spec.Code
		c.length = L
		c.accept = 1 << uint(L-1)
		for pos, mask := range spec.Window() {
			for b := dna.A; b <= dna.T; b++ {
				if mask.Has(b) {
					c.eq[b] |= 1 << uint(pos)
				}
			}
		}
		for pos := range spec.Spacer {
			c.subsMask |= 1 << uint(spec.SpacerOffset()+pos)
		}
		e.pats = append(e.pats, c)
	}
	switch mode {
	case ModeBitap:
		e.buildPackedBitap()
	case ModePrefilter:
		if err := e.buildPrefilter(specs); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("hscan: unknown mode %v", mode)
	}
	return e, nil
}

// Name implements arch.Engine.
func (e *Engine) Name() string { return "hyperscan-" + e.mode.String() }

// MaxSiteLen returns the longest compiled pattern (chunk overlap size).
func (e *Engine) MaxSiteLen() int {
	max := 0
	for _, p := range e.pats {
		if p.length > max {
			max = p.length
		}
	}
	return max
}

// ScanChrom implements arch.Engine. It is the ctx-less compatibility
// bridge; cancellation-aware callers use ScanChromContext.
func (e *Engine) ScanChrom(c *genome.Chromosome, emit func(automata.Report)) error {
	return e.ScanChromContext(context.Background(), c, emit)
}

// ScanChromContext implements arch.ContextEngine: both execution paths
// honor ctx at chunk granularity (arch.DefaultChunk positions).
func (e *Engine) ScanChromContext(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	if e.mode == ModePrefilter {
		return e.scanChromPrefilter(ctx, c, emit)
	}
	return e.scanParallel(ctx, c.Name, c.Seq, emit)
}

// workers caps the configured parallelism at the machine width.
func (e *Engine) workers() int {
	w := e.Parallelism
	if w > runtime.NumCPU() {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scanChromPrefilter runs the prefilter path, draining candidate
// anchor positions through the arch.ChunkScan pool (which supplies the
// cancellation checks and worker panic isolation).
func (e *Engine) scanChromPrefilter(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	total := len(c.Seq) - e.preSite + 1
	if total <= 0 {
		return nil
	}
	// The chunk callback hands its batch straight to scanPrefilter —
	// matches append into *out with no per-chunk emit closure between
	// the kernel and the batch.
	chunks, err := arch.ChunkScan(ctx, e.Name()+" "+c.Name, e.workers(), total, arch.DefaultChunk, e.rec,
		//crisprlint:hotpath
		func(lo, hi int, out *[]automata.Report) error {
			if h := e.chunkHook; h != nil {
				h(lo, hi)
			}
			hits, verifs := e.scanPrefilter(c, lo, hi, out)
			e.rec.Add(metrics.CounterCandidateWindows, int64(hi-lo))
			e.rec.Add(metrics.CounterPrefilterHits, hits)
			e.rec.Add(metrics.CounterVerifications, verifs)
			return nil
		})
	if err != nil {
		return err
	}
	for _, rs := range chunks {
		for _, r := range rs {
			emit(r)
		}
	}
	return nil
}

// scanBitap runs the Wu–Manber rows. For every pattern, R[j] bit i means
// "an alignment of the first i+1 pattern positions ends at the current
// symbol with at most j mismatches". PAM positions are excluded from the
// mismatch branch by subsMask, and ambiguous bases clear every row.
// seq starts at genome position base; matches ending at or after own
// (the chunk's first owned position) are appended to *out.
//
//crisprlint:hotpath
func (e *Engine) scanBitap(seq dna.Seq, base, own int, out *[]automata.Report) {
	var rows [maxBitapK + 1]uint64
	for pi := range e.pats {
		p := &e.pats[pi]
		k := p.k
		_ = rows[k] // one check here lets prove elide every rows[j], j <= k
		for j := 0; j <= k; j++ {
			rows[j] = 0
		}
		eq := &p.eq
		subs := p.subsMask
		accept := p.accept
		for t, b := range seq {
			if b > dna.T {
				for j := 0; j <= k; j++ {
					rows[j] = 0
				}
				continue
			}
			m := eq[b]
			prev := rows[0]
			rows[0] = (prev<<1 | 1) & m
			hit := rows[0]
			for j := 1; j <= k; j++ {
				cur := rows[j]
				rows[j] = (cur<<1|1)&m | (prev<<1|1)&subs
				prev = cur
				hit |= rows[j]
			}
			if hit&accept != 0 && base+t >= own {
				//crisprlint:allow hotpath match reports are rare relative to positions; the batch grows amortized
				*out = append(*out, automata.Report{Code: p.code, End: base + t})
			}
		}
	}
}

// scanParallel drains the sequence through the arch.ChunkScan pool in
// fixed-size chunks extended left by site-length overlap, deduping the
// overlap region by ownership: a chunk only reports matches whose End
// falls inside its own span (the kernels drop Ends before lo; none can
// reach past hi). The pool supplies cancellation checks between chunks
// and converts worker panics into errors naming the chunk.
func (e *Engine) scanParallel(ctx context.Context, chrom string, seq dna.Seq, emit func(automata.Report)) error {
	overlap := e.MaxSiteLen() - 1
	chunk := arch.DefaultChunk
	if chunk <= overlap {
		chunk = overlap + 1
	}
	chunks, err := arch.ChunkScan(ctx, e.Name()+" "+chrom, e.workers(), len(seq), chunk, e.rec,
		//crisprlint:hotpath
		func(lo, hi int, out *[]automata.Report) error {
			if h := e.chunkHook; h != nil {
				h(lo, hi)
			}
			elo := lo - overlap
			if elo < 0 {
				elo = 0
			}
			in := seq[elo:hi]
			if e.packed != nil {
				e.scanBitapPacked(in, elo, lo, out)
			} else {
				e.scanBitap(in, elo, lo, out)
			}
			e.rec.Add(metrics.CounterCandidateWindows, int64(hi-lo))
			return nil
		})
	if err != nil {
		return err
	}
	for _, rs := range chunks {
		for _, r := range rs {
			emit(r)
		}
	}
	return nil
}
