package core

import (
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/report"
)

// TestSoakLargeScale is the paper-shaped end-to-end run in miniature:
// a 2 Mbp genome, 50 sampled guides at full length (20nt + NGG), k=4,
// six engines cross-checked at Workers 4 (the three NFA platforms among
// them, through the shared chunked kernel), and planted ground truth at
// every mismatch level up to the budget. Guarded by -short so quick
// edit cycles skip it.
func TestSoakLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	g := genome.Synthesize(genome.SynthConfig{Seed: 901, ChromLen: 1_000_000, NumChroms: 2})
	pam := dna.MustParsePattern("NGG")
	raw := genome.SampleGuides(g, 50, 20, pam, 902)
	if len(raw) < 50 {
		t.Fatalf("sampled %d/50 guides", len(raw))
	}
	plan := genome.PlantPlan{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
	planted, err := genome.Plant(g, raw, pam, plan, 903)
	if err != nil {
		t.Fatal(err)
	}
	guides := make([]dna.Pattern, len(raw))
	for i, r := range raw {
		guides[i] = dna.PatternFromSeq(r)
	}

	var ref []report.Site
	for _, kind := range []EngineKind{EngineHyperscan, EngineHyperscanBitap, EngineCasOffinder, EngineAP, EngineFPGA, EngineInfant} {
		res, err := Search(g, guides, Params{MaxMismatches: 4, Engine: kind, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ref == nil {
			ref = res.Sites
			// Recall of all 250 planted sites.
			found := map[string]bool{}
			for _, s := range res.Sites {
				found[siteKey(s)] = true
			}
			for _, p := range planted {
				key := siteKey(report.Site{Chrom: p.Chrom, Pos: p.Pos, Strand: p.Strand, Guide: p.Guide, Mismatches: p.Mismatches})
				if !found[key] {
					t.Fatalf("planted site %+v missed", p)
				}
			}
			t.Logf("soak: %d sites, %d planted recalled", len(res.Sites), len(planted))
			continue
		}
		if len(res.Sites) != len(ref) {
			t.Fatalf("%s: %d sites vs %d", kind, len(res.Sites), len(ref))
		}
		for i := range ref {
			if res.Sites[i] != ref[i] {
				t.Fatalf("%s: site %d differs", kind, i)
			}
		}
	}
}
