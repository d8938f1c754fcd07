// Package ap models Micron's Automata Processor (the D480 chip and the
// 32-chip evaluation board the paper used). The AP executes homogeneous
// NFAs natively: every state is a state-transition element (STE) holding
// an 8-bit symbol class, all STEs evaluate one input symbol per clock,
// and activations propagate through the routing matrix — so our automata
// map one state to one STE with no translation.
//
// Because the hardware no longer exists outside a few labs, this package
// substitutes (per DESIGN.md) the shared NFA kernel (arch.NFAEngine,
// which implements exactly the AP's execution semantics) for the chip,
// plus an analytic timing model driven by the device's published
// constants: 133 MHz symbol clock (7.5 ns/symbol), 49,152 STEs per chip,
// 32 chips per board. Kernel time on a real AP is deterministic
// (symbols x clock x passes, plus output-event stalls), which is what
// makes the analytic model faithful.
package ap

import (
	"github.com/cap-repro/crisprscan/internal/arch"
)

// Device holds the published AP hardware constants.
type Device struct {
	// STEsPerChip is the per-chip STE capacity (D480: 49,152).
	STEsPerChip int
	// Chips on the board (evaluation board: 32). Chips whose STEs are
	// not needed by the automata can process independent input streams.
	Chips int
	// SymbolsPerSec is the symbol clock (D480: 133 MHz).
	SymbolsPerSec float64
	// ReportBatchSymbols is the drain granularity of the output event
	// buffer: one batch read-out stalls the chip for ReportStallSec.
	// Wadden et al. (HPCA 2018) characterize this output bottleneck.
	ReportBatchSize int
	ReportStallSec  float64
	// ConfigSec is the one-time compile/place/route plus board
	// configuration cost (offline; excluded from kernel comparisons).
	ConfigSec float64
	// StreamBytesPerSec is the input DMA rate per rank.
	StreamBytesPerSec float64
}

// D480Board is the default 32-chip evaluation board.
var D480Board = Device{
	STEsPerChip:       49152,
	Chips:             32,
	SymbolsPerSec:     133e6,
	ReportBatchSize:   1024,
	ReportStallSec:    10e-6,
	ConfigSec:         45,
	StreamBytesPerSec: 1e9,
}

// FutureBoard models the architectural modifications the paper proposes
// for next-generation automata hardware: a DDR4-rate symbol clock (the
// D480's 133 MHz was bound by its DDR3-derived array timing), denser
// STE arrays from a process shrink, an on-chip report aggregator that
// both batches wider and drains faster, and a full-bandwidth input
// path. These are projections, not a shipped device; E14 quantifies
// what each buys on the off-target workload.
var FutureBoard = Device{
	STEsPerChip:       98304, // 2x density
	Chips:             32,
	SymbolsPerSec:     400e6, // DDR4-rate symbol clock
	ReportBatchSize:   4096,  // wider on-chip aggregation
	ReportStallSec:    2e-6,  // faster drain path
	ConfigSec:         45,
	StreamBytesPerSec: 8e9,
}

// Options controls compilation onto the device.
type Options struct {
	Device Device
	// MergeStates applies the prefix/suffix merging optimization before
	// placement (the paper's proposed STE reduction).
	MergeStates bool
	// Stride2 compiles the 2-strided automaton (halves symbols per
	// input base, costs extra STEs). The AP hardware cannot actually
	// re-clock, so stride-2 on the AP models the paper's "future
	// automata hardware" discussion rather than the shipped D480.
	Stride2 bool
}

// Model is a compiled workload on the AP, implementing arch.Modeled:
// the shared NFA kernel executes the placed network, and the model adds
// the device's placement and timing.
type Model struct {
	*arch.NFAEngine
	opt     Options
	res     arch.ResourceUsage
	streams int
	// symbolsPerBase is 1 for stride-1, 0.5 for stride-2.
	symbolsPerBase float64
}

// Compile builds the automata network for the pattern specs and places
// it onto the device.
func Compile(specs []arch.PatternSpec, opt Options) (*Model, error) {
	if opt.Device.STEsPerChip == 0 {
		opt.Device = D480Board
	}
	name, symbolsPerBase := "ap", 1.0
	if opt.Stride2 {
		name, symbolsPerBase = "ap-stride2", 0.5
	}
	k, err := arch.NewNFAEngine(name, specs, arch.NetworkOptions{Merge: opt.MergeStates, Stride2: opt.Stride2})
	if err != nil {
		return nil, err
	}
	m := &Model{NFAEngine: k, opt: opt, symbolsPerBase: symbolsPerBase}
	m.place()
	return m, nil
}

// place computes STE demand, passes and parallel streams.
func (m *Model) place() {
	stats := m.NFA().ComputeStats()
	m.res, m.streams = PlaceStates(stats.States, m.opt.Device)
	m.res.ReportStates = stats.ReportStates
}

// PlaceStates computes board placement for a given STE demand: the pass
// count when the board overflows, and the replication stream count when
// it does not (spare chips scan independent input slices). Exposed so
// capacity studies (E7) can plan placements analytically without
// materializing multi-million-state networks.
func PlaceStates(states int, dev Device) (arch.ResourceUsage, int) {
	if dev.STEsPerChip == 0 {
		dev = D480Board
	}
	chipsNeeded := (states + dev.STEsPerChip - 1) / dev.STEsPerChip
	passes := 1
	streams := 1
	if chipsNeeded <= dev.Chips {
		streams = dev.Chips / chipsNeeded
	} else {
		passes = (chipsNeeded + dev.Chips - 1) / dev.Chips
	}
	return arch.ResourceUsage{
		States:   states,
		Capacity: dev.STEsPerChip * dev.Chips,
		Passes:   passes,
	}, streams
}

// KernelSeconds predicts kernel time for a placement produced by
// PlaceStates over inputLen symbols.
func KernelSeconds(inputLen int, res arch.ResourceUsage, streams int, dev Device) float64 {
	if dev.STEsPerChip == 0 {
		dev = D480Board
	}
	return float64(inputLen) * float64(res.Passes) / (dev.SymbolsPerSec * float64(streams))
}

// Resources implements arch.Modeled.
func (m *Model) Resources() arch.ResourceUsage { return m.res }

// Streams reports the input-level parallelism achieved by replication.
func (m *Model) Streams() int { return m.streams }

// EstimateBreakdown implements arch.Modeled. The kernel streams
// inputLen bases (x symbolsPerBase symbols) through the board passes
// times, with stream-level replication dividing wall time; the output
// event buffer stalls the chip once per ReportBatchSize reports.
func (m *Model) EstimateBreakdown(inputLen, reportCount int) arch.Breakdown {
	dev := m.opt.Device
	symbols := float64(inputLen) * m.symbolsPerBase
	kernel := symbols * float64(m.res.Passes) / (dev.SymbolsPerSec * float64(m.streams))
	batches := 0
	if dev.ReportBatchSize > 0 {
		batches = (reportCount + dev.ReportBatchSize - 1) / dev.ReportBatchSize
	}
	return arch.Breakdown{
		Compile:  dev.ConfigSec,
		Transfer: symbols / dev.StreamBytesPerSec, // one byte per symbol on the DDR-style interface
		Kernel:   kernel,
		Report:   float64(batches) * dev.ReportStallSec,
	}
}
