package crisprscan

// Benchmark suite: one benchmark per evaluation table/figure (E1..E14,
// regenerating the same rows cmd/benchtab prints) plus per-engine
// throughput benchmarks with bytes/sec accounting. Run with:
//
//	go test -bench=. -benchmem
//
// The E-series benchmarks execute at a reduced scale so the whole suite
// completes in minutes; cmd/benchtab -scale default|large runs the
// paper-sized sweeps.

import (
	"io"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/bench"
	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dfa"
	"github.com/cap-repro/crisprscan/internal/hscan"
)

// benchScale keeps the in-test E-series fast; benchtab runs the real
// profiles.
var benchScale = bench.Scale{
	Name: "gotest", GenomeLen: 200_000,
	GenomeSet: []int{50_000, 100_000, 200_000},
	GuideSet:  []int{2, 5, 10}, Guides: 5,
	KSet: []int{1, 2, 3}, K: 2,
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, benchScale, io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1AutomataSize regenerates the automata characterization
// table (states, STEs, LUTs, DFA sizes per guide and budget).
func BenchmarkE1AutomataSize(b *testing.B) { runExperiment(b, "1") }

// BenchmarkE2KernelVsK regenerates the main figure: kernel time versus
// mismatch budget for all six systems.
func BenchmarkE2KernelVsK(b *testing.B) { runExperiment(b, "2") }

// BenchmarkE3KernelVsGuides regenerates the guide-count sweep.
func BenchmarkE3KernelVsGuides(b *testing.B) { runExperiment(b, "3") }

// BenchmarkE4Headline regenerates the headline speedup comparisons.
func BenchmarkE4Headline(b *testing.B) { runExperiment(b, "4") }

// BenchmarkE5GenomeScaling regenerates the genome-size sweep.
func BenchmarkE5GenomeScaling(b *testing.B) { runExperiment(b, "5") }

// BenchmarkE6Breakdown regenerates the end-to-end breakdown table.
func BenchmarkE6Breakdown(b *testing.B) { runExperiment(b, "6") }

// BenchmarkE7APCapacity regenerates the AP capacity/multi-pass study.
func BenchmarkE7APCapacity(b *testing.B) { runExperiment(b, "7") }

// BenchmarkE8PrefixMerge regenerates the state-merging ablation.
func BenchmarkE8PrefixMerge(b *testing.B) { runExperiment(b, "8") }

// BenchmarkE9Multistride regenerates the 2-striding ablation.
func BenchmarkE9Multistride(b *testing.B) { runExperiment(b, "9") }

// BenchmarkE10Reporting regenerates the reporting-bottleneck study.
func BenchmarkE10Reporting(b *testing.B) { runExperiment(b, "10") }

// BenchmarkE12Bulge regenerates the bulge-tolerant search study.
func BenchmarkE12Bulge(b *testing.B) { runExperiment(b, "12") }

// BenchmarkE13SeedIndexBlowup regenerates the measured seed-enumeration
// blowup comparison.
func BenchmarkE13SeedIndexBlowup(b *testing.B) { runExperiment(b, "13") }

// --- per-engine throughput benchmarks -------------------------------

// engineBench measures one engine's scan throughput over a fixed
// workload (bytes/sec = genome bases per second).
func engineBench(b *testing.B, kind core.EngineKind, guides, k int) {
	b.Helper()
	w := bench.NewWorkload(1_000_000, guides, k, 99)
	specs := w.Specs()
	e, err := core.NewEngine(kind, specs, core.Params{MaxMismatches: k, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.Genome.TotalLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := range w.Genome.Chroms {
			if err := e.ScanChrom(&w.Genome.Chroms[ci], func(automata.Report) {}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineHyperscanPrefilter(b *testing.B) { engineBench(b, core.EngineHyperscan, 20, 3) }
func BenchmarkEngineHyperscanBitap(b *testing.B)     { engineBench(b, core.EngineHyperscanBitap, 20, 3) }
func BenchmarkEngineCasOffinderCPU(b *testing.B)     { engineBench(b, core.EngineCasOffinder, 20, 3) }
func BenchmarkEngineCasOT(b *testing.B)              { engineBench(b, core.EngineCasOT, 20, 3) }
func BenchmarkEngineCasOTIndex(b *testing.B)         { engineBench(b, core.EngineCasOTIndex, 20, 2) }

// The guide-count ends of the flagship kernel: at 10 guides the PAM pass
// dominates, at 1000 the per-hit guide filter does.
func BenchmarkEngineHyperscanPrefilterG10(b *testing.B) {
	engineBench(b, core.EngineHyperscan, 10, 3)
}
func BenchmarkEngineHyperscanPrefilterG1000(b *testing.B) {
	engineBench(b, core.EngineHyperscan, 1000, 3)
}

// BenchmarkNFASimulation measures the shared NFA kernel (the functional
// path of the AP, FPGA and iNFAnt2 models) on a 5-guide network.
func BenchmarkNFASimulation(b *testing.B) {
	w := bench.NewWorkload(200_000, 5, 3, 101)
	e, err := core.NewEngine(core.EngineHyperscanNFA, w.Specs(), core.Params{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.Genome.TotalLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := range w.Genome.Chroms {
			if err := e.ScanChrom(&w.Genome.Chroms[ci], func(automata.Report) {}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDFAScan measures the table-driven DFA path on one guide.
func BenchmarkDFAScan(b *testing.B) {
	w := bench.NewWorkload(1_000_000, 1, 2, 102)
	e, err := hscan.New(w.Specs(), hscan.ModeDFA)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.Genome.TotalLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := range w.Genome.Chroms {
			if err := e.ScanChrom(&w.Genome.Chroms[ci], func(automata.Report) {}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSubsetConstruction measures determinization of a k=3 guide
// automaton (the compile-side cost E1 tabulates).
func BenchmarkSubsetConstruction(b *testing.B) {
	w := bench.NewWorkload(50_000, 1, 3, 103)
	n, err := automata.CompileHamming(w.Guides[0], automata.CompileOptions{MaxMismatches: 3, PAM: w.PAM, Code: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dfa.FromNFA(n, dfa.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = dfa.Minimize(d)
	}
}

// BenchmarkMergeEquivalent measures the spatial state-merging transform
// on a 20-guide union.
func BenchmarkMergeEquivalent(b *testing.B) {
	w := bench.NewWorkload(50_000, 20, 3, 104)
	var parts []*automata.NFA
	for i, g := range w.Guides {
		n, err := automata.CompileHamming(g, automata.CompileOptions{MaxMismatches: 3, PAM: w.PAM, Code: int32(i)})
		if err != nil {
			b.Fatal(err)
		}
		parts = append(parts, n)
	}
	u, err := automata.UnionAll("bench", parts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = automata.MergeEquivalent(u)
	}
}

// BenchmarkMultistride2 measures the 2-striding transform.
func BenchmarkMultistride2(b *testing.B) {
	w := bench.NewWorkload(50_000, 5, 3, 105)
	var parts []*automata.NFA
	for i, g := range w.Guides {
		n, err := automata.CompileHamming(g, automata.CompileOptions{MaxMismatches: 3, PAM: w.PAM, Code: int32(i)})
		if err != nil {
			b.Fatal(err)
		}
		parts = append(parts, n)
	}
	u, err := automata.UnionAll("bench", parts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := automata.Multistride2(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSearch measures the public API path end to end.
func BenchmarkEndToEndSearch(b *testing.B) {
	g := SynthesizeGenome(SynthConfig{Seed: 106, ChromLen: 1_000_000})
	guides, err := SampleGuides(g, 10, 20, "NGG", 107)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.TotalLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(g, guides, Params{MaxMismatches: 3, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulgeSearch measures the edit-automata path (E12's kernel).
func BenchmarkBulgeSearch(b *testing.B) {
	g := SynthesizeGenome(SynthConfig{Seed: 108, ChromLen: 100_000})
	guides, err := SampleGuides(g, 3, 20, "NGG", 109)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.TotalLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchBulge(g, guides, BulgeParams{MaxMismatches: 1, MaxBulge: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Silence unused-import drift if engine sets change.
var _ = arch.PatternSpec{}

// BenchmarkE14FutureHardware regenerates the future-hardware projection.
func BenchmarkE14FutureHardware(b *testing.B) { runExperiment(b, "14") }
