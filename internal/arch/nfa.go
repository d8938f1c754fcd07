package arch

import (
	"context"
	"fmt"
	"runtime"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// NetworkOptions selects the transforms CompileNetwork applies to the
// union automaton.
type NetworkOptions struct {
	// Merge applies prefix/suffix state merging (the paper's proposed
	// STE reduction) to the union, and again after striding.
	Merge bool
	// Stride2 rewrites the network to consume two bases per symbol.
	Stride2 bool
}

// CompileNetwork compiles the pattern specs into the one homogeneous
// automata network the paper runs on every automata platform: each spec
// becomes its Hamming mismatch lattice, the lattices are unioned, and
// the options' transforms follow. The AP and FPGA models place this
// network, iNFAnt2 costs its frontier, NFAEngine executes it, and
// anmlview exports it.
func CompileNetwork(specs []PatternSpec, opt NetworkOptions) (*automata.NFA, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("arch: no patterns")
	}
	parts := make([]*automata.NFA, 0, len(specs))
	for _, spec := range specs {
		n, err := automata.CompileHamming(spec.Spacer, automata.CompileOptions{
			MaxMismatches: spec.K, PAM: spec.PAM, PAMLeft: spec.PAMLeft, Code: spec.Code,
		})
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	n, err := automata.UnionAll("offtarget", parts)
	if err != nil {
		return nil, err
	}
	return TransformNetwork(n, opt)
}

// TransformNetwork applies the options' transforms to a compiled
// network: merging, then striding, then merging the strided network
// again (striding re-creates mergeable prefixes).
func TransformNetwork(n *automata.NFA, opt NetworkOptions) (*automata.NFA, error) {
	if opt.Merge {
		n, _ = automata.MergeEquivalent(n)
	}
	if opt.Stride2 {
		var err error
		if n, err = automata.Multistride2(n); err != nil {
			return nil, err
		}
		if opt.Merge {
			n, _ = automata.MergeEquivalent(n)
		}
	}
	return n, nil
}

// NFAEngine is the functional kernel for a compiled automata network:
// the bitset simulator, which implements exactly the STE semantics the
// spatial platforms evaluate, run over ChunkScan. The AP, FPGA and
// iNFAnt2 models embed it and add only their cost models; hyperscan-nfa
// is the merged network run on its own.
//
// Each chunk is scanned from a left overlap of one site length and
// reports only the matches that end inside it, so any worker count
// yields the serial scan's events in the serial order. Stride-2 chunks
// start at even offsets, keeping the base pairing of a whole-chromosome
// scan.
type NFAEngine struct {
	name    string
	nfa     *automata.NFA
	stride2 bool
	overlap int

	// Workers is the data-parallel width (default 1).
	Workers int

	rec *metrics.Recorder
	// chunk is the ChunkScan work unit (DefaultChunk; tests shrink it
	// to put many chunk boundaries under a small input).
	chunk int
	// chunkHook, when set, runs at the start of every chunk with its
	// [lo, hi) bounds; tests use it to cancel or panic mid-scan.
	chunkHook func(lo, hi int)
}

// NewNFAEngine compiles specs with CompileNetwork and returns the
// kernel that executes the network under the given engine name.
func NewNFAEngine(name string, specs []PatternSpec, opt NetworkOptions) (*NFAEngine, error) {
	n, err := CompileNetwork(specs, opt)
	if err != nil {
		return nil, err
	}
	site := 0
	for _, s := range specs {
		site = max(site, s.SiteLen())
	}
	return &NFAEngine{name: name, nfa: n, stride2: opt.Stride2, overlap: site - 1, Workers: 1, chunk: DefaultChunk}, nil
}

// Name implements Engine.
func (e *NFAEngine) Name() string { return e.name }

// NFA exposes the compiled network (placement, ANML export, stats).
func (e *NFAEngine) NFA() *automata.NFA { return e.nfa }

// SetMetrics implements Instrumented.
func (e *NFAEngine) SetMetrics(rec *metrics.Recorder) { e.rec = rec }

// ScanChrom implements Engine; it is the ctx-less bridge to
// ScanChromContext.
func (e *NFAEngine) ScanChrom(c *genome.Chromosome, emit func(automata.Report)) error {
	return e.ScanChromContext(context.Background(), c, emit)
}

// ScanChromContext implements ContextEngine.
func (e *NFAEngine) ScanChromContext(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	workers := min(e.Workers, runtime.NumCPU())
	chunk := max(e.chunk, e.overlap+1)
	chunks, err := ChunkScan(ctx, e.name+" "+c.Name, workers, len(c.Seq), chunk, e.rec,
		func(lo, hi int, out *[]automata.Report) error {
			if h := e.chunkHook; h != nil {
				h(lo, hi)
			}
			elo := max(lo-e.overlap, 0)
			if e.stride2 {
				elo &^= 1
			}
			in := automata.SymbolsOfSeq(c.Seq[elo:hi])
			keep := func(r automata.Report) {
				r.End += elo
				if r.End >= lo && r.End < hi {
					*out = append(*out, r)
				}
			}
			sim := automata.NewSim(e.nfa)
			if e.stride2 {
				automata.ScanStride2(sim, in, keep)
			} else {
				sim.Scan(in, keep)
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
