package hscan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// bothStrandSpecs builds plus+minus specs for random guides, the shape
// the orchestrator feeds engines.
func bothStrandSpecs(rng *rand.Rand, n, m, k int) []PatternSpec {
	pam := dna.MustParsePattern("NGG")
	var specs []PatternSpec
	for i := 0; i < n; i++ {
		spacer := make(dna.Seq, m)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(2 * i)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
	}
	return specs
}

func TestPrefilterMatchesBitapBothStrands(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 8; trial++ {
		specs := bothStrandSpecs(rng, 3, 10+rng.Intn(8), rng.Intn(4))
		c := chromOf(rng, 12000, 0.01)
		pre, err := New(specs, ModePrefilter)
		if err != nil {
			t.Fatal(err)
		}
		bit, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		a := collect(t, pre, c)
		b := collect(t, bit, c)
		if len(a) != len(b) {
			t.Fatalf("trial %d: prefilter %d vs bitap %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d report %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestPrefilterParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	specs := bothStrandSpecs(rng, 4, 8, 2)
	c := chromOf(rng, 40000, 0.005)
	serial, _ := New(specs, ModePrefilter)
	par, _ := New(specs, ModePrefilter)
	par.Parallelism = 6
	a := collect(t, serial, c)
	b := collect(t, par, c)
	if len(a) == 0 {
		t.Fatal("weak fixture")
	}
	if len(a) != len(b) {
		t.Fatalf("parallel prefilter differs: %d vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestPrefilterErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	long := randSpecs(rng, 1, 33, 0)
	if _, err := New(long, ModePrefilter); err == nil {
		t.Error("spacer > 32 must error in prefilter mode")
	}
	ragged := append(randSpecs(rng, 1, 10, 1), randSpecs(rng, 1, 12, 1)...)
	if _, err := New(ragged, ModePrefilter); err == nil {
		t.Error("ragged geometry must error in prefilter mode")
	}
	partial := []PatternSpec{{
		Spacer: dna.MustParsePattern("ACGR"),
		PAM:    dna.MustParsePattern("NGG"), K: 0, Code: 0,
	}}
	if _, err := New(partial, ModePrefilter); err == nil {
		t.Error("partially degenerate spacer must error in prefilter mode")
	}
}

func TestPrefilterMultiPAM(t *testing.T) {
	// NGG and NAG patterns in one engine (the multi-PAM feature real
	// off-target tools offer): prefilter must equal bitap.
	rng := rand.New(rand.NewSource(126))
	var specs []PatternSpec
	for i := 0; i < 3; i++ {
		spacer := make(dna.Seq, 8)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		pam := dna.MustParsePattern("NGG")
		if i%2 == 1 {
			pam = dna.MustParsePattern("NAG")
		}
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: 2, Code: int32(2 * i)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
	}
	c := chromOf(rng, 15000, 0.01)
	pre, err := New(specs, ModePrefilter)
	if err != nil {
		t.Fatal(err)
	}
	bit, err := New(specs, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	a := collect(t, pre, c)
	b := collect(t, bit, c)
	if len(a) == 0 {
		t.Fatal("weak fixture")
	}
	if len(a) != len(b) {
		t.Fatalf("multi-PAM prefilter %d vs bitap %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestPrefilterTinyChromosome(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	specs := randSpecs(rng, 1, 10, 1)
	c := chromOf(rng, 5, 0) // shorter than the window
	e, _ := New(specs, ModePrefilter)
	got := collect(t, e, c)
	if len(got) != 0 {
		t.Errorf("tiny chromosome: %v", got)
	}
}

// TestPrefilterPropertyAgainstOracle is the property-based check: for
// random guides, genomes and budgets, the prefilter path equals the
// positional oracle.
func TestPrefilterPropertyAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	f := func(seed int64, kRaw, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw) % 4
		n := 1 + int(nRaw)%4
		specs := bothStrandSpecs(r, n, 8, k)
		c := chromOf(r, 3000, 0.02)
		e, err := New(specs, ModePrefilter)
		if err != nil {
			return false
		}
		var got []automata.Report
		if err := e.ScanChrom(c, func(rep automata.Report) { got = append(got, rep) }); err != nil {
			return false
		}
		want := oracleGeneric(specs, c.Seq)
		if len(got) != len(want) {
			return false
		}
		seen := map[automata.Report]bool{}
		for _, r := range got {
			seen[r] = true
		}
		for _, r := range want {
			if !seen[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// oracleGeneric handles PAMLeft specs too.
func oracleGeneric(specs []PatternSpec, seq dna.Seq) []automata.Report {
	var out []automata.Report
	for _, spec := range specs {
		site := spec.SiteLen()
		window := spec.Window()
		for p := 0; p+site <= len(seq); p++ {
			w := seq[p : p+site]
			if w.HasAmbiguous() {
				continue
			}
			mism := 0
			bad := false
			for i, m := range window {
				if !m.Has(w[i]) {
					spacerStart := spec.SpacerOffset()
					if i >= spacerStart && i < spacerStart+len(spec.Spacer) {
						mism++
					} else {
						bad = true
						break
					}
				}
			}
			if !bad && mism <= spec.K {
				out = append(out, automata.Report{Code: spec.Code, End: p + site - 1})
			}
		}
	}
	return out
}

// TestPrefilterCounterInvariants pins the counter invariants documented
// on metrics.CounterVerifications for the prefilter kernel, on a
// filtered configuration (the Cas9 shape: 20 nt, k=3), an all-fallback
// one (k=12 leaves 1-base fragments) and a mixed engine, and checks that
// the guide filter keeps the compares per PAM hit small.
func TestPrefilterCounterInvariants(t *testing.T) {
	for _, tc := range []struct {
		name              string
		k, altK           int  // budgets of the NGG and the NAG patterns
		filtered, altFilt bool // whether the NGG / NAG groups get a guide filter
		maxPerHitRatio    float64
	}{
		{name: "filtered", k: 3, altK: 3, filtered: true, altFilt: true, maxPerHitRatio: 10},
		{name: "fallback", k: 12, altK: 12},
		{name: "mixed", k: 2, altK: 15, filtered: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(127))
			var specs []PatternSpec
			for i := 0; i < 300; i++ {
				spacer := make(dna.Seq, 20)
				for j := range spacer {
					spacer[j] = dna.Base(rng.Intn(4))
				}
				pam, k := dna.MustParsePattern("NGG"), tc.k
				if i%2 == 1 {
					pam, k = dna.MustParsePattern("NAG"), tc.altK
				}
				plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(2 * i)}
				specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
			}
			c := chromOf(rng, 40000, 0.002)
			want, groupHits := referenceScan(specs, c.Seq)
			e, err := New(specs, ModePrefilter)
			if err != nil {
				t.Fatal(err)
			}
			// Groups in first-appearance order: NGG plus, NGG minus, NAG
			// plus, NAG minus.
			for gi := range e.preGroups {
				want := tc.filtered
				if gi >= 2 {
					want = tc.altFilt
				}
				if got := e.preGroups[gi].keyMask != 0; got != want {
					t.Fatalf("group %d filtered = %v, want %v", gi, got, want)
				}
			}
			rec := metrics.NewRecorder()
			e.SetMetrics(rec)
			var got []automata.Report
			if err := e.ScanChrom(c, func(r automata.Report) { got = append(got, r) }); err != nil {
				t.Fatal(err)
			}
			sameStream(t, tc.name, got, want)
			checkCounterInvariants(t, e, rec, groupHits, int64(len(got)))
			if tc.maxPerHitRatio > 0 {
				hits := rec.CounterValue(metrics.CounterPrefilterHits)
				verifs := rec.CounterValue(metrics.CounterVerifications)
				if hits == 0 || float64(verifs)/float64(hits) > tc.maxPerHitRatio {
					t.Fatalf("%d compares over %d PAM hits: the guide filter is not narrowing", verifs, hits)
				}
			}
		})
	}
}

// TestPrefilterHitReportsInGuideOrder pins the within-hit report order
// when the guide filter finds guides out of index order: guide 1 differs
// from guide 0 only in fragment 0, and the planted site carries guide 1,
// so guide 1 is listed under fragment 0 while guide 0 is first listed
// under fragment 1. Reports must still come out as guide 0, guide 1.
func TestPrefilterHitReportsInGuideOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	g0 := make(dna.Seq, 20)
	for j := range g0 {
		g0[j] = dna.Base(rng.Intn(4))
	}
	g1 := append(dna.Seq(nil), g0...)
	g1[0] = (g1[0] + 1) % 4
	pam := dna.MustParsePattern("NGG")
	specs := []PatternSpec{
		{Spacer: dna.PatternFromSeq(g0), PAM: pam, K: 1, Code: 0},
		{Spacer: dna.PatternFromSeq(g1), PAM: pam, K: 1, Code: 1},
	}
	c := chromOf(rng, 400, 0)
	copy(c.Seq[200:], append(append(dna.Seq(nil), g1...), dna.A, dna.G, dna.G))
	c.Packed = dna.Pack(c.Seq)
	e, err := New(specs, ModePrefilter)
	if err != nil {
		t.Fatal(err)
	}
	if e.preGroups[0].keyMask == 0 {
		t.Fatal("20 nt at k=1 must get a guide filter")
	}
	var got []automata.Report
	if err := e.ScanChrom(c, func(r automata.Report) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	want, _ := referenceScan(specs, c.Seq)
	if len(want) < 2 {
		t.Fatal("weak fixture: the planted site must report both guides")
	}
	sameStream(t, "guide order", got, want)
}
