package hscan

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

func randSpecs(rng *rand.Rand, n, m, k int) []PatternSpec {
	pam := dna.MustParsePattern("NGG")
	specs := make([]PatternSpec, n)
	for i := range specs {
		spacer := make(dna.Seq, m)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		specs[i] = PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(i)}
	}
	return specs
}

func chromOf(rng *rand.Rand, n int, ambRate float64) *genome.Chromosome {
	seq := make(dna.Seq, n)
	for i := range seq {
		if rng.Float64() < ambRate {
			seq[i] = dna.BadBase
		} else {
			seq[i] = dna.Base(rng.Intn(4))
		}
	}
	c := genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
	return &c
}

func collect(t *testing.T, e *Engine, c *genome.Chromosome) []automata.Report {
	t.Helper()
	var out []automata.Report
	if err := e.ScanChrom(c, func(r automata.Report) { out = append(out, r) }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Code < out[j].Code
	})
	// Dedup: parallel chunks and multi-engine paths must already be
	// unique; keep the check strict by NOT deduping here.
	return out
}

func oracle(specs []PatternSpec, seq dna.Seq) []automata.Report {
	var out []automata.Report
	for _, spec := range specs {
		site := spec.SiteLen()
		for p := 0; p+site <= len(seq); p++ {
			if seq[p : p+site].HasAmbiguous() {
				continue
			}
			if spec.Spacer.Mismatches(seq[p:p+len(spec.Spacer)]) > spec.K {
				continue
			}
			if !spec.PAM.Matches(seq[p+len(spec.Spacer) : p+site]) {
				continue
			}
			out = append(out, automata.Report{Code: spec.Code, End: p + site - 1})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Code < out[j].Code
	})
	return out
}

func equal(a, b []automata.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBitapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		specs := randSpecs(rng, 3, 6+rng.Intn(6), rng.Intn(4))
		c := chromOf(rng, 4000, 0.01)
		e, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, e, c)
		want := oracle(specs, c.Seq)
		if !equal(got, want) {
			t.Fatalf("trial %d: bitap %d reports, oracle %d", trial, len(got), len(want))
		}
	}
}

func TestModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	specs := randSpecs(rng, 4, 8, 2)
	c := chromOf(rng, 6000, 0.02)
	var results [][]automata.Report
	for _, mode := range []Mode{ModeBitap, ModeDFA} {
		e, err := New(specs, mode)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, collect(t, e, c))
	}
	if len(results[0]) == 0 {
		t.Fatal("fixture produced no matches; weak test")
	}
	if !equal(results[0], results[1]) {
		t.Fatalf("modes disagree: bitap=%d dfa=%d", len(results[0]), len(results[1]))
	}
}

func TestFullLengthGuides(t *testing.T) {
	// Realistic shape: 20-mers + NGG, k up to 5.
	rng := rand.New(rand.NewSource(63))
	for _, k := range []int{0, 3, 5} {
		specs := randSpecs(rng, 2, 20, k)
		c := chromOf(rng, 50000, 0)
		e, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, e, c)
		want := oracle(specs, c.Seq)
		if !equal(got, want) {
			t.Fatalf("k=%d: %d vs oracle %d", k, len(got), len(want))
		}
	}
}

func TestParallelEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	specs := randSpecs(rng, 5, 8, 2)
	c := chromOf(rng, 30000, 0.01)
	serial, err := New(specs, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(specs, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	par.Parallelism = 4
	a := collect(t, serial, c)
	b := collect(t, par, c)
	if len(a) == 0 {
		t.Fatal("no matches; weak test")
	}
	if !equal(a, b) {
		t.Fatalf("parallel scan differs: %d vs %d", len(b), len(a))
	}
}

func TestParallelTinyInputFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	specs := randSpecs(rng, 1, 6, 1)
	c := chromOf(rng, 15, 0)
	e, _ := New(specs, ModeBitap)
	e.Parallelism = 8
	got := collect(t, e, c)
	want := oracle(specs, c.Seq)
	if !equal(got, want) {
		t.Fatalf("tiny input: %v vs %v", got, want)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, ModeBitap); err == nil {
		t.Error("empty pattern set must error")
	}
	long := PatternSpec{Spacer: make(dna.Pattern, 70), PAM: nil, K: 0}
	for i := range long.Spacer {
		long.Spacer[i] = dna.MaskA
	}
	if _, err := New([]PatternSpec{long}, ModeBitap); err == nil {
		t.Error("pattern > 64 must error")
	}
	bad := PatternSpec{Spacer: dna.MustParsePattern("ACGT"), K: 9}
	if _, err := New([]PatternSpec{bad}, ModeBitap); err == nil {
		t.Error("k out of range must error")
	}
	if _, err := New(randSpecs(rand.New(rand.NewSource(1)), 1, 6, 1), Mode(42)); err == nil {
		t.Error("unknown mode must error")
	}
}

// TestBitapRejectsBudgetAboveRows checks that ModeBitap refuses budgets
// its fixed register rows cannot hold, at compile time, in both the
// scalar and the packed-pair kernel shapes; other modes accept them.
func TestBitapRejectsBudgetAboveRows(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 2} { // one pattern: scalar kernel; two: packed pairs
		specs := randSpecs(rng, n, 20, maxBitapK+1)
		if _, err := New(specs, ModeBitap); err == nil || !strings.Contains(err.Error(), "bitap mode supports mismatch budgets up to 7") {
			t.Fatalf("%d patterns at k=%d: want the bitap budget error, got %v", n, maxBitapK+1, err)
		}
		specs = randSpecs(rng, n, 20, maxBitapK)
		e, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatalf("k=%d must compile: %v", maxBitapK, err)
		}
		collect(t, e, chromOf(rng, 5000, 0))
	}
	if _, err := New(randSpecs(rng, 2, 20, 12), ModePrefilter); err != nil {
		t.Fatalf("prefilter mode has no row limit: %v", err)
	}
}

func TestStatsAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	specs := randSpecs(rng, 2, 6, 1)
	b, _ := New(specs, ModeBitap)
	if _, ok := b.DFAStates(); ok {
		t.Error("bitap engine must not report DFA states")
	}
	df, _ := New(specs, ModeDFA)
	if n, ok := df.DFAStates(); !ok || n == 0 {
		t.Error("DFA states missing")
	}
	if b.Name() != "hyperscan-bitap" || df.Name() != "hyperscan-dfa" {
		t.Errorf("names: %s / %s", b.Name(), df.Name())
	}
}
