package ap

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
)

func randSpecs(rng *rand.Rand, n, m, k int) []arch.PatternSpec {
	pam := dna.MustParsePattern("NGG")
	specs := make([]arch.PatternSpec, n)
	for i := range specs {
		spacer := make(dna.Seq, m)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		specs[i] = arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(i)}
	}
	return specs
}

func chromOf(rng *rand.Rand, n int) *genome.Chromosome {
	seq := make(dna.Seq, n)
	for i := range seq {
		seq[i] = dna.Base(rng.Intn(4))
	}
	return &genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
}

func collect(t *testing.T, e arch.Engine, c *genome.Chromosome) []automata.Report {
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
	return out
}

// TestFunctionalAgreesWithHscan checks that the network the AP model
// compiles (each Options combination) reports exactly what hscan reports.
func TestFunctionalAgreesWithHscan(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	specs := randSpecs(rng, 4, 8, 2)
	c := chromOf(rng, 8000)
	for _, opt := range []Options{{}, {MergeStates: true}, {Stride2: true}, {MergeStates: true, Stride2: true}} {
		m, err := Compile(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		hs, _ := hscan.New(specs, hscan.ModeBitap)
		a := collect(t, m, c)
		b := collect(t, hs, c)
		if len(a) == 0 {
			t.Fatal("no matches; weak fixture")
		}
		if len(a) != len(b) {
			t.Fatalf("opt %+v: ap %d vs hscan %d", opt, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("opt %+v report %d: %v vs %v", opt, i, a[i], b[i])
			}
		}
	}
}

func TestPlacementSingleChip(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	m, err := Compile(randSpecs(rng, 100, 20, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Resources()
	if res.Passes != 1 {
		t.Errorf("100 guides should fit in one pass, got %d", res.Passes)
	}
	if m.Streams() != D480Board.Chips {
		t.Errorf("single-chip design should replicate across all %d chips, got %d", D480Board.Chips, m.Streams())
	}
	if res.States != 100*automata.HammingStateCount(20, 3, 3) {
		t.Errorf("states = %d", res.States)
	}
}

func TestPlacementMultiPass(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	// Force overflow with a small fake device.
	dev := D480Board
	dev.STEsPerChip = 200
	dev.Chips = 2
	m, err := Compile(randSpecs(rng, 10, 20, 3), Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Resources()
	if res.Passes <= 1 {
		t.Errorf("expected multi-pass, got %d", res.Passes)
	}
	if m.Streams() != 1 {
		t.Errorf("overflowing design cannot replicate, streams=%d", m.Streams())
	}
	// Kernel time must scale with passes.
	b1 := m.EstimateBreakdown(1_000_000, 100)
	single, _ := Compile(randSpecs(rng, 10, 20, 3), Options{})
	b2 := single.EstimateBreakdown(1_000_000, 100)
	if b1.Kernel <= b2.Kernel {
		t.Errorf("multi-pass kernel (%g) should exceed single-pass (%g)", b1.Kernel, b2.Kernel)
	}
}

func TestMergeReducesSTEs(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	specs := randSpecs(rng, 20, 20, 3)
	plain, err := Compile(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Compile(specs, Options{MergeStates: true})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Resources().States >= plain.Resources().States {
		t.Errorf("merging should reduce STEs: %d -> %d", plain.Resources().States, merged.Resources().States)
	}
}

func TestStride2HalvesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	specs := randSpecs(rng, 5, 20, 2)
	s1, err := Compile(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(specs, Options{Stride2: true})
	if err != nil {
		t.Fatal(err)
	}
	b1 := s1.EstimateBreakdown(10_000_000, 0)
	b2 := s2.EstimateBreakdown(10_000_000, 0)
	// Same replication here (both fit one chip), so stride-2 halves
	// kernel time exactly.
	if s1.Streams() == s2.Streams() && b2.Kernel >= b1.Kernel*0.6 {
		t.Errorf("stride-2 kernel %g vs stride-1 %g", b2.Kernel, b1.Kernel)
	}
	if s2.Resources().States <= s1.Resources().States {
		t.Error("stride-2 must cost extra states")
	}
}

func TestReportStalls(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	m, err := Compile(randSpecs(rng, 5, 20, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	quiet := m.EstimateBreakdown(1_000_000, 0)
	noisy := m.EstimateBreakdown(1_000_000, 1_000_000)
	if noisy.Report <= quiet.Report {
		t.Error("report stalls must grow with report count")
	}
	if quiet.Report != 0 {
		t.Errorf("zero reports should cost zero stall, got %g", quiet.Report)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("empty specs must error")
	}
	bad := []arch.PatternSpec{{Spacer: dna.MustParsePattern("ACGT"), K: 9}}
	if _, err := Compile(bad, Options{}); err == nil {
		t.Error("bad budget must error")
	}
}

func TestModeledInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	m, err := Compile(randSpecs(rng, 2, 8, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var _ arch.Modeled = m
	if m.Name() != "ap" {
		t.Errorf("name = %s", m.Name())
	}
	s2, _ := Compile(randSpecs(rng, 2, 8, 1), Options{Stride2: true})
	if s2.Name() != "ap-stride2" {
		t.Errorf("name = %s", s2.Name())
	}
	if m.NFA() == nil {
		t.Error("NFA accessor nil")
	}
}
