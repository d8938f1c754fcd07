package fpga

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

// TestFunctionalAgreesWithHscan checks that the network the fpga model
// compiles reports exactly what hscan reports.
func TestFunctionalAgreesWithHscan(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	specs := randSpecs(rng, 3, 8, 2)
	seq := make(dna.Seq, 6000)
	for i := range seq {
		seq[i] = dna.Base(rng.Intn(4))
	}
	c := &genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
	for _, opt := range []Options{{}, {Stride2: true, MergeStates: true}} {
		m, err := Compile(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		hs, _ := hscan.New(specs, hscan.ModeBitap)
		var a, b []automata.Report
		if err := m.ScanChrom(c, func(r automata.Report) { a = append(a, r) }); err != nil {
			t.Fatal(err)
		}
		if err := hs.ScanChrom(c, func(r automata.Report) { b = append(b, r) }); err != nil {
			t.Fatal(err)
		}
		for _, s := range [][]automata.Report{a, b} {
			sort.Slice(s, func(i, j int) bool {
				if s[i].End != s[j].End {
					return s[i].End < s[j].End
				}
				return s[i].Code < s[j].Code
			})
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("opt %+v: fpga %d vs hscan %d", opt, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("opt %+v report %d differs", opt, i)
			}
		}
	}
}

func TestReplication(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	small, err := Compile(randSpecs(rng, 5, 20, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compile(randSpecs(rng, 500, 20, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if small.Streams() <= big.Streams() {
		t.Errorf("small design should replicate more: %d vs %d", small.Streams(), big.Streams())
	}
	if small.Streams() > KU115.MaxStreams {
		t.Errorf("streams %d exceeds cap", small.Streams())
	}
	bS := small.EstimateBreakdown(10_000_000, 0)
	bB := big.EstimateBreakdown(10_000_000, 0)
	if bS.Kernel >= bB.Kernel {
		t.Error("more replication must mean faster kernel")
	}
}

func TestMultiPassWhenOverflowing(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	dev := KU115
	dev.LUTs = 2000
	m, err := Compile(randSpecs(rng, 20, 20, 3), Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if m.Resources().Passes <= 1 {
		t.Errorf("expected multi-pass, got %d", m.Resources().Passes)
	}
}

func TestStride2Tradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	specs := randSpecs(rng, 50, 20, 3)
	s1, err := Compile(specs, Options{MergeStates: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(specs, Options{MergeStates: true, Stride2: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Resources().States <= s1.Resources().States {
		t.Error("stride-2 must cost states")
	}
	if s2.LUTsUsed() <= s1.LUTsUsed() {
		t.Error("stride-2 must cost LUTs")
	}
	// Per-stream symbol rate doubles; whether wall-clock improves
	// depends on lost replication. Verify the model reflects the
	// halved symbol count at equal streams.
	b1 := s1.EstimateBreakdown(10_000_000, 0)
	b2 := s2.EstimateBreakdown(10_000_000, 0)
	perStream1 := b1.Kernel * float64(s1.Streams())
	perStream2 := b2.Kernel * float64(s2.Streams())
	if perStream2 >= perStream1 {
		t.Errorf("per-stream stride-2 time %g should beat stride-1 %g", perStream2, perStream1)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("empty specs must error")
	}
}

func TestModeledInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	m, err := Compile(randSpecs(rng, 2, 8, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var _ arch.Modeled = m
	if m.Name() != "fpga" {
		t.Errorf("name = %s", m.Name())
	}
	s2, _ := Compile(randSpecs(rng, 2, 8, 1), Options{Stride2: true})
	if s2.Name() != "fpga-stride2" {
		t.Errorf("name = %s", s2.Name())
	}
	b := m.EstimateBreakdown(1_000_000, 10)
	if b.Kernel <= 0 || b.Compile <= 0 {
		t.Errorf("breakdown: %+v", b)
	}
}
