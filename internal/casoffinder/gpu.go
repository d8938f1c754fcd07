package casoffinder

import (
	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/dna"
)

// GPUParams describes the OpenCL device the paper ran Cas-OFFinder on.
// Rates are *effective sustained* rates for this algorithm, calibrated
// against Cas-OFFinder's published whole-genome runtimes (tens of
// seconds to minutes for ~100 guides on hg19-class genomes) rather than
// against the paper under reproduction, so the E4 speedup comparison
// stays an output of the model, not an input.
type GPUParams struct {
	// PAMTestsPerSec is the sustained rate of step-1 PAM tests.
	PAMTestsPerSec float64
	// ComparesPerSec is the sustained rate of step-2 guide-window
	// comparisons (each touches the full spacer; Cas-OFFinder's inner
	// loop is global-memory bound, which keeps this far below ALU peak).
	ComparesPerSec float64
	// TransferBytesPerSec models PCIe streaming of the packed genome.
	TransferBytesPerSec float64
	// LaunchOverheadSec is fixed per-scan overhead (context, kernel
	// launches, buffer setup).
	LaunchOverheadSec float64
	// ReportCostSec is the host-side cost per reported site.
	ReportCostSec float64
}

// DefaultGPU approximates the mid-2010s discrete GPU used by the paper's
// Cas-OFFinder baseline.
var DefaultGPU = GPUParams{
	PAMTestsPerSec:      1.0e9,
	ComparesPerSec:      3.2e8,
	TransferBytesPerSec: 12e9,
	LaunchOverheadSec:   0.05,
	ReportCostSec:       2e-7,
}

// GPUModel wraps an Engine with the analytic device-timing model,
// implementing arch.Modeled. Scans, instrumentation and cancellation
// are the wrapped engine's (the algorithm is identical on CPU and GPU);
// the model only prices them, and the orchestrator charges that price.
type GPUModel struct {
	*Engine
	Params GPUParams
}

// NewGPUModel compiles the pattern set and attaches the GPU model.
func NewGPUModel(specs []arch.PatternSpec, params GPUParams) (*GPUModel, error) {
	e, err := New(specs, 1)
	if err != nil {
		return nil, err
	}
	return &GPUModel{Engine: e, Params: params}, nil
}

// Name implements arch.Engine.
func (m *GPUModel) Name() string { return "cas-offinder-gpu" }

// pamHitRate is the expected fraction of positions passing a group's
// PAM test under a uniform base distribution, averaged across groups
// (reverse-complement PAMs give the same product, so mixed strands do
// not skew the average).
func (m *GPUModel) pamHitRate() float64 {
	if len(m.groups) == 0 {
		return 0
	}
	total := 0.0
	for gi := range m.groups {
		rate := 1.0
		for _, mask := range m.groups[gi].pam {
			rate *= float64(mask.Count()) / dna.AlphabetSize
		}
		total += rate
	}
	return total / float64(len(m.groups))
}

// EstimateBreakdown implements arch.Modeled. Brute-force work is
// independent of the mismatch budget (no early-exit modeling), which is
// exactly why the paper's automata approaches pull ahead as k grows.
func (m *GPUModel) EstimateBreakdown(inputLen, reportCount int) arch.Breakdown {
	pamTests, compares := m.Comparisons(inputLen, m.pamHitRate())
	return arch.Breakdown{
		Compile:  m.Params.LaunchOverheadSec,
		Transfer: float64(inputLen) / 4 / m.Params.TransferBytesPerSec, // 2-bit packed
		Kernel:   pamTests/m.Params.PAMTestsPerSec + compares/m.Params.ComparesPerSec,
		Report:   float64(reportCount) * m.Params.ReportCostSec,
	}
}

// Resources implements arch.Modeled; a GPU has no spatial state fabric,
// so the usage is empty.
func (m *GPUModel) Resources() arch.ResourceUsage { return arch.ResourceUsage{} }
