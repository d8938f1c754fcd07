package core

import (
	"bytes"
	"context"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
)

// TestModeledTimeChargedOncePerChromosome pins the one charging site:
// for every modeled engine, Search and SearchStreamContext return the
// same Stats.Modeled and Resources, and Stats.Modeled equals the
// recorder's modeled steps — the compile step plus the per-chromosome
// sums — field for field. Guides are sampled from the genome so events
// land on several chromosomes, where a whole-genome estimate and the
// per-chromosome sum differ (the AP rounds report batches up per
// chromosome).
func TestModeledTimeChargedOncePerChromosome(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 1401, ChromLen: 20_000, NumChroms: 3})
	pam := dna.MustParsePattern("NGG")
	var guides []dna.Pattern
	for _, r := range genome.SampleGuides(g, 6, 20, pam, 1402) {
		guides = append(guides, dna.PatternFromSeq(r))
	}
	var fa bytes.Buffer
	w := fasta.NewWriter(&fa, 0)
	for _, rec := range g.ToFasta() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineAP, EngineFPGA, EngineInfant, EngineCasOffinderGPU} {
		t.Run(string(kind), func(t *testing.T) {
			p := Params{MaxMismatches: 4, Engine: kind, Metrics: metrics.NewRecorder()}
			res, err := Search(g, guides, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Events == 0 {
				t.Fatal("no events; weak fixture")
			}
			checkRecorded(t, "batch", &res.Stats)
			p.Metrics = metrics.NewRecorder()
			st, err := SearchStreamContext(context.Background(), bytes.NewReader(fa.Bytes()), guides, p, nil,
				func(report.Site) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if st.Modeled == nil || st.Resources == nil {
				t.Fatalf("stream: modeled stats missing: %v / %v", st.Modeled, st.Resources)
			}
			checkRecorded(t, "stream", st)
			if *res.Stats.Modeled != *st.Modeled || *res.Stats.Resources != *st.Resources {
				t.Errorf("batch %+v / %+v, stream %+v / %+v", *res.Stats.Modeled, *res.Stats.Resources, *st.Modeled, *st.Resources)
			}
		})
	}
}

// checkRecorded asserts that s.Modeled is exactly the recorder's
// modeled steps.
func checkRecorded(t *testing.T, path string, s *Stats) {
	t.Helper()
	if s.Modeled == nil {
		t.Fatalf("%s: Stats.Modeled missing", path)
	}
	sec := s.Metrics.ModeledSec
	recorded := arch.Breakdown{Compile: sec["compile"], Transfer: sec["transfer"], Kernel: sec["kernel"], Report: sec["report"]}
	if *s.Modeled != recorded {
		t.Errorf("%s: Stats.Modeled %+v, recorded steps %+v", path, *s.Modeled, recorded)
	}
}
