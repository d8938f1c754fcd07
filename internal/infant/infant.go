// Package infant models iNFAnt2, the GPU NFA engine the paper evaluated
// (a descendant of iNFAnt, Cascarano et al.). iNFAnt-style engines store
// the NFA as symbol-indexed transition lists in GPU memory; for each
// input symbol, a thread block loads the current active-state frontier,
// gathers the transition list entries whose source is active, and
// scatters the destinations into the next frontier — one global
// synchronization per symbol. Throughput is therefore proportional to
// the number of concurrently active transitions, which is exactly why
// the paper found the mismatch lattice a poor fit for GPUs: unlike
// regex NFAs with small frontiers, the lattice keeps O(k^2) states per
// guide active at all times, and the frontier work dwarfs the symbol
// rate. Multiple thread blocks scan independent input slices.
//
// Functional behavior comes from the shared NFA kernel; timing comes
// from the cost model below, whose per-transition and per-symbol
// constants are set so a small-frontier workload approaches published
// iNFAnt2 throughput (~1 Gbps-class on a mid-2010s discrete GPU) and
// degrade linearly with frontier size. The average frontier is not
// assumed: Compile measures it by simulating a seeded sample input.
package infant

import (
	"math/rand"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
)

// Device holds the GPU model constants.
type Device struct {
	// Blocks is the number of independent input slices scanned
	// concurrently (thread blocks with their own frontier).
	Blocks int
	// SymbolOverheadSec is the fixed per-symbol cost per block (frontier
	// swap + the implicit global synchronization).
	SymbolOverheadSec float64
	// TransitionsPerSec is the aggregate gather/scatter rate across the
	// device (global-memory bound).
	TransitionsPerSec float64
	// TransferBytesPerSec is PCIe input streaming.
	TransferBytesPerSec float64
	// CompileSec covers transition-table construction and upload.
	CompileSec float64
	// ReportCostSec is the host-side cost per match event read back.
	ReportCostSec float64
	// SampleLen is the seeded-sample length used to measure the average
	// frontier at compile time.
	SampleLen int
}

// DefaultGPU approximates the paper's discrete GPU; every model costs
// its scans on it.
var DefaultGPU = Device{
	Blocks:              96,
	SymbolOverheadSec:   120e-9,
	TransitionsPerSec:   2.5e10,
	TransferBytesPerSec: 12e9,
	CompileSec:          0.5,
	ReportCostSec:       2e-7,
	SampleLen:           1 << 16,
}

// Options controls compilation.
type Options struct {
	// MergeStates merges equivalent states before building transition
	// lists (shrinks the frontier).
	MergeStates bool
}

// sampleSeed seeds the synthetic sample used to estimate frontier size.
const sampleSeed = 1

// Model is a compiled workload on the GPU NFA engine: the shared NFA
// kernel executes the automaton, and the model costs the frontier work
// on DefaultGPU.
type Model struct {
	*arch.NFAEngine
	// avgActive is the measured mean frontier size (active states per
	// symbol) on the calibration sample.
	avgActive float64
	// avgFanout is the mean out-degree, converting frontier size to
	// transition-list work.
	avgFanout float64
}

// Compile builds the union automaton and measures its frontier.
func Compile(specs []arch.PatternSpec, opt Options) (*Model, error) {
	k, err := arch.NewNFAEngine("infant2", specs, arch.NetworkOptions{Merge: opt.MergeStates})
	if err != nil {
		return nil, err
	}
	m := &Model{NFAEngine: k}
	m.measureFrontier()
	return m, nil
}

// measureFrontier simulates a seeded uniform-random sample and records
// the mean active-state count and fanout.
func (m *Model) measureFrontier() {
	rng := rand.New(rand.NewSource(sampleSeed))
	sample := make([]uint8, DefaultGPU.SampleLen)
	for i := range sample {
		sample[i] = uint8(rng.Intn(dna.AlphabetSize))
	}
	trace := automata.NewSim(m.NFA()).ActivityTrace(sample)
	total := 0
	for _, c := range trace {
		total += c
	}
	m.avgActive = float64(total) / float64(len(trace))
	stats := m.NFA().ComputeStats()
	if stats.States > 0 {
		m.avgFanout = float64(stats.Edges) / float64(stats.States)
	}
	if m.avgFanout < 1 {
		m.avgFanout = 1
	}
}

// AvgFrontier reports the measured mean active-state count (E-series
// tables use it to explain the GPU's poor fit).
func (m *Model) AvgFrontier() float64 { return m.avgActive }

// Resources implements arch.Modeled; the transition table is memory,
// not fabric, so spatial usage is empty.
func (m *Model) Resources() arch.ResourceUsage { return arch.ResourceUsage{} }

// EstimateBreakdown implements arch.Modeled: per-block fixed symbol
// cost (the serialization term) plus aggregate transition work.
func (m *Model) EstimateBreakdown(inputLen, reportCount int) arch.Breakdown {
	dev := DefaultGPU
	symbolsPerBlock := float64(inputLen) / float64(dev.Blocks)
	serial := symbolsPerBlock * dev.SymbolOverheadSec
	transitions := float64(inputLen) * m.avgActive * m.avgFanout
	gather := transitions / dev.TransitionsPerSec
	kernel := serial
	if gather > kernel {
		kernel = gather // the two resources overlap; the slower binds
	}
	return arch.Breakdown{
		Compile:  dev.CompileSec,
		Transfer: float64(inputLen) / dev.TransferBytesPerSec,
		Kernel:   kernel,
		Report:   float64(reportCount) * dev.ReportCostSec,
	}
}
