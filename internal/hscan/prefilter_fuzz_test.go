package hscan

import (
	"math/rand"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// referenceScan is the all-guides reference for ModePrefilter: at every
// anchor, in ascending order, every (PAM, orientation) group in
// first-appearance order checks its PAM and every guide in pattern
// order, byte by byte. It returns the report stream in that order and
// the number of PAM hits (anchors whose PAM matches and whose site has
// no ambiguous base) per group.
func referenceScan(specs []PatternSpec, seq dna.Seq) (reports []automata.Report, hits []int64) {
	var groups [][]PatternSpec
	index := map[string]int{}
	for _, s := range specs {
		key := s.PAM.String()
		if s.PAMLeft {
			key = "<" + key
		}
		gi, ok := index[key]
		if !ok {
			gi = len(groups)
			index[key] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], s)
	}
	hits = make([]int64, len(groups))
	site := specs[0].SiteLen()
	for p := 0; p+site <= len(seq); p++ {
		for gi, g := range groups {
			pamOff, spOff := g[0].PAMOffset(), g[0].SpacerOffset()
			if !g[0].PAM.Matches(seq[p+pamOff : p+pamOff+len(g[0].PAM)]) {
				continue
			}
			window := seq[p+spOff : p+spOff+len(g[0].Spacer)]
			if window.HasAmbiguous() {
				continue
			}
			hits[gi]++
			for _, s := range g {
				if s.Spacer.Mismatches(window) <= s.K {
					reports = append(reports, automata.Report{Code: s.Code, End: p + site - 1})
				}
			}
		}
	}
	return reports, hits
}

// fuzzGuides draws n spacers of length l: fresh random ones, mutated
// near-duplicates of earlier ones (so fragment buckets collide) and
// some with an N position. One in four sets also gets one N-heavy guide,
// whose run of five Ns exceeds maxFragNs and sends its group to the
// all-guides compare.
func fuzzGuides(rng *rand.Rand, n, l int) []dna.Pattern {
	out := make([]dna.Pattern, 0, n)
	for i := 0; i < n; i++ {
		var sp dna.Pattern
		if i > 0 && rng.Intn(2) == 0 {
			sp = append(dna.Pattern(nil), out[rng.Intn(len(out))]...)
			for m := 1 + rng.Intn(3); m > 0; m-- {
				sp[rng.Intn(l)] = dna.Mask(1) << dna.Base(rng.Intn(4))
			}
		} else {
			sp = make(dna.Pattern, l)
			for j := range sp {
				sp[j] = dna.Mask(1) << dna.Base(rng.Intn(4))
			}
		}
		if rng.Intn(6) == 0 {
			sp[rng.Intn(l)] = dna.MaskAny
		}
		out = append(out, sp)
	}
	if rng.Intn(4) == 0 {
		sp := out[rng.Intn(n)]
		start := rng.Intn(l)
		for j := start; j < l && j < start+5; j++ {
			sp[j] = dna.MaskAny
		}
	}
	return out
}

// fuzzGenome builds a chromosome with N runs at 32-base word edges (and
// at arch.DefaultChunk edges when long enough to span two chunks) and
// plants mutated guide sites, including in the last 32 anchors.
func fuzzGenome(rng *rand.Rand, n int, spacers []dna.Pattern, pams []dna.Pattern, pamLeft bool) *genome.Chromosome {
	seq := make(dna.Seq, n)
	for i := range seq {
		seq[i] = dna.Base(rng.Intn(4))
	}
	concrete := func(m dna.Mask) dna.Base {
		for {
			if b := dna.Base(rng.Intn(4)); m.Has(b) {
				return b
			}
		}
	}
	site := len(spacers[0]) + len(pams[0])
	for plants := 4 + rng.Intn(12); plants > 0 && n >= site; plants-- {
		p := rng.Intn(n - site + 1)
		if plants%3 == 0 {
			p = n - site - rng.Intn(min(32, n-site+1))
		}
		sp := spacers[rng.Intn(len(spacers))]
		pam := pams[rng.Intn(len(pams))]
		var window dna.Pattern
		if pamLeft {
			window = append(append(window, pam...), sp...)
		} else {
			window = append(append(window, sp...), pam...)
		}
		for j, m := range window {
			seq[p+j] = concrete(m)
		}
		for m := rng.Intn(4); m > 0; m-- {
			seq[p+rng.Intn(site)] = dna.Base(rng.Intn(4))
		}
	}
	edges := []int{32 * (1 + rng.Intn(max(1, n/32)))}
	if n > arch.DefaultChunk {
		edges = append(edges, arch.DefaultChunk)
	}
	for _, e := range edges {
		start := e - rng.Intn(4)
		for j := start; j < start+1+rng.Intn(6) && j < n; j++ {
			if j >= 0 {
				seq[j] = dna.BadBase
			}
		}
	}
	c := genome.Chromosome{Name: "fuzz", Seq: seq, Packed: dna.Pack(seq)}
	return &c
}

// FuzzPrefilterAgainstOracle checks that the two-stage prefilter kernel
// emits exactly the reference report stream — same reports, same order
// — serially and in parallel, and that its counters keep their
// documented invariants.
func FuzzPrefilterAgainstOracle(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0), uint8(19), uint8(3), false)
	f.Add(int64(2), uint16(40), uint8(1), uint8(19), uint8(1), false)
	f.Add(int64(3), uint16(12), uint8(2), uint8(7), uint8(0), true)
	f.Add(int64(4), uint16(200), uint8(0), uint8(31), uint8(9), true)
	f.Add(int64(5), uint16(3), uint8(0), uint8(3), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, nGuides uint16, pamSet, lRaw, kRaw uint8, long bool) {
		rng := rand.New(rand.NewSource(seed))
		l := 1 + int(lRaw)%32
		n := 1 + int(nGuides)%400
		pamLeft := pamSet%2 == 1
		var pams []dna.Pattern
		if pamLeft {
			pams = []dna.Pattern{dna.MustParsePattern("TTTV")}
		} else {
			pams = []dna.Pattern{dna.MustParsePattern("NGG"), dna.MustParsePattern("NRG"), dna.MustParsePattern("NAG")}
		}
		spacers := fuzzGuides(rng, n, l)
		// One shared budget, per-spec budgets up to it, or per-spec
		// budgets up to the spacer length (which forces fallback groups).
		kShared := int(kRaw) % (l + 1)
		kMode := rng.Intn(3)
		var specs []PatternSpec
		for i, sp := range spacers {
			k := kShared
			switch kMode {
			case 1:
				k = rng.Intn(kShared + 1)
			case 2:
				k = rng.Intn(l + 1)
			}
			pam := pams[i%len(pams)]
			plus := PatternSpec{Spacer: sp, PAM: pam, PAMLeft: pamLeft, K: k, Code: int32(2 * i)}
			specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
		}
		size := 32 + rng.Intn(700)
		if long {
			size = arch.DefaultChunk + rng.Intn(200)
		}
		c := fuzzGenome(rng, size, spacers, pams, pamLeft)

		want, groupHits := referenceScan(specs, c.Seq)
		e, err := New(specs, ModePrefilter)
		if err != nil {
			t.Fatal(err)
		}
		rec := metrics.NewRecorder()
		e.SetMetrics(rec)
		var got []automata.Report
		if err := e.ScanChrom(c, func(r automata.Report) { got = append(got, r) }); err != nil {
			t.Fatal(err)
		}
		sameStream(t, "serial", got, want)

		par, _ := New(specs, ModePrefilter)
		par.Parallelism = 3
		got = got[:0]
		if err := par.ScanChrom(c, func(r automata.Report) { got = append(got, r) }); err != nil {
			t.Fatal(err)
		}
		sameStream(t, "parallel", got, want)

		checkCounterInvariants(t, e, rec, groupHits, int64(len(want)))
	})
}

// sameStream fails unless got and want are the same sequence.
func sameStream(t *testing.T, label string, got, want []automata.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: report %d is %+v, reference has %+v", label, i, got[i], want[i])
		}
	}
}

// checkCounterInvariants asserts the documented prefilter counter
// invariants (see metrics.CounterVerifications) for an engine that
// scanned one chromosome: PAM hits equal the reference's, compares
// never exceed hits x patterns-in-group and equal it when every group
// falls back, and every report came from a compare.
func checkCounterInvariants(t *testing.T, e *Engine, rec *metrics.Recorder, groupHits []int64, reports int64) {
	t.Helper()
	hits := rec.CounterValue(metrics.CounterPrefilterHits)
	verifs := rec.CounterValue(metrics.CounterVerifications)
	var wantHits, bound int64
	allFallback := true
	for gi := range e.preGroups {
		wantHits += groupHits[gi]
		bound += groupHits[gi] * int64(len(e.preGroups[gi].pats))
		if e.preGroups[gi].keyMask != 0 {
			allFallback = false
		}
	}
	if hits != wantHits {
		t.Fatalf("prefilter_hits = %d, reference PAM hits = %d", hits, wantHits)
	}
	if verifs > bound {
		t.Fatalf("verifications %d exceed hits x patterns-in-group %d", verifs, bound)
	}
	if allFallback && verifs != bound {
		t.Fatalf("fallback groups: verifications %d, want hits x patterns-in-group %d", verifs, bound)
	}
	if reports > verifs {
		t.Fatalf("%d reports from only %d compares", reports, verifs)
	}
}
