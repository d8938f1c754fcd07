package ap

import (
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
)

// Trace holds cycle-level statistics from a functional simulation —
// the quantities the analytic timing model abstracts away. The E10
// reporting analysis and the iNFAnt2 frontier measurements are both
// sanity-checked against traces like this.
type Trace struct {
	// Cycles is the symbol count consumed.
	Cycles int
	// AvgActive and MaxActive summarize the per-cycle active-STE count
	// (the dynamic-power proxy: an STE burns energy when evaluating an
	// active transition).
	AvgActive float64
	MaxActive int
	// Reports is the total match-event count.
	Reports int
	// MaxReportsPerCycle is the widest single-cycle report burst (the
	// output event buffer must absorb it).
	MaxReportsPerCycle int
	// BusiestWindow is the largest report count in any window of
	// WindowCycles consecutive cycles — the drain-rate requirement.
	BusiestWindow int
	WindowCycles  int
}

// TraceScan runs the model's automaton functionally and collects
// cycle-level statistics. window sets the BusiestWindow width (default
// 1024 cycles, one output-region drain period).
func (m *Model) TraceScan(seq dna.Seq, window int) Trace {
	if window <= 0 {
		window = 1024
	}
	in := automata.SymbolsOfSeq(seq)
	sim := automata.NewSim(m.NFA())

	// Active-state counts per cycle.
	activity := sim.ActivityTrace(in)
	tr := Trace{Cycles: len(in), WindowCycles: window}
	total := 0
	for _, a := range activity {
		total += a
		if a > tr.MaxActive {
			tr.MaxActive = a
		}
	}
	if len(activity) > 0 {
		tr.AvgActive = float64(total) / float64(len(activity))
	}

	// Report events per cycle (second pass; the simulator is cheap at
	// trace scales).
	perCycle := make([]int, len(in))
	sim2 := automata.NewSim(m.NFA())
	sim2.Scan(in, func(r automata.Report) {
		tr.Reports++
		if r.End >= 0 && r.End < len(perCycle) {
			perCycle[r.End]++
		}
	})
	run := 0
	for t, c := range perCycle {
		if c > tr.MaxReportsPerCycle {
			tr.MaxReportsPerCycle = c
		}
		run += c
		if t >= window {
			run -= perCycle[t-window]
		}
		if run > tr.BusiestWindow {
			tr.BusiestWindow = run
		}
	}
	return tr
}

// BoardWatts is the rough board power draw used by EstimateEnergy. The
// D480's published figures put a fully active chip around 4 W; a 32-chip
// board with interface logic lands near 150 W. This is an auxiliary
// estimate, not a paper-reported number.
const BoardWatts = 150.0

// EstimateEnergy returns the modeled kernel energy in joules for
// scanning inputLen bases (kernel time x board power). Idle chips in a
// replicated design still burn static power, so the board figure is
// used whole.
func (m *Model) EstimateEnergy(inputLen, reportCount int) float64 {
	b := m.EstimateBreakdown(inputLen, reportCount)
	return (b.Kernel + b.Report) * BoardWatts
}
