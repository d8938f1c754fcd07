package arch_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
)

// kernelFixture is a both-strand spec set with frequent matches (short
// spacers) over a chromosome with scattered Ns; scanned in small chunks,
// many sites straddle chunk boundaries and ambiguous bases.
func kernelFixture(seed int64) ([]arch.PatternSpec, *genome.Chromosome) {
	rng := rand.New(rand.NewSource(seed))
	pam := dna.MustParsePattern("NGG")
	var specs []arch.PatternSpec
	for i := 0; i < 4; i++ {
		spacer := make(dna.Seq, 8)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: 3, Code: int32(2 * i)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
	}
	seq := make(dna.Seq, 40_000+777)
	for i := range seq {
		if rng.Float64() < 0.002 {
			seq[i] = dna.BadBase
		} else {
			seq[i] = dna.Base(rng.Intn(4))
		}
	}
	return specs, &genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
}

func scan(t *testing.T, e arch.Engine, c *genome.Chromosome) []automata.Report {
	t.Helper()
	var out []automata.Report
	if err := arch.ScanChrom(context.Background(), e, c, func(r automata.Report) { out = append(out, r) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func sorted(rs []automata.Report) []automata.Report {
	out := append([]automata.Report(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Code < out[j].Code
	})
	return out
}

func equalReports(a, b []automata.Report) bool {
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

// TestNFAEngineAgreesWithHscan is the functional check for every NFA
// platform (ap, fpga, infant2, hyperscan-nfa): for stride 1 and 2,
// merged and unmerged, serial and parallel, whole-chunk and with a
// chunk boundary every few sites (even and odd chunk sizes), the kernel
// reports exactly the bit-parallel engine's matches; every chunking
// and worker count also reproduces the serial event order.
func TestNFAEngineAgreesWithHscan(t *testing.T) {
	specs, c := kernelFixture(91)
	ref, err := hscan.New(specs, hscan.ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	want := sorted(scan(t, ref, c))
	if len(want) == 0 {
		t.Fatal("fixture produced no matches; weak test")
	}
	for _, opt := range []arch.NetworkOptions{{}, {Merge: true}, {Stride2: true}, {Merge: true, Stride2: true}} {
		e, err := arch.NewNFAEngine("nfa", specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		serial := scan(t, e, c)
		if got := sorted(serial); !equalReports(got, want) {
			t.Fatalf("%+v serial: %d reports, hscan %d", opt, len(got), len(want))
		}
		for _, chunk := range []int{500, 301} {
			for _, workers := range []int{1, 3} {
				arch.SetChunk(e, chunk)
				e.Workers = workers
				if got := scan(t, e, c); !equalReports(got, serial) {
					t.Fatalf("%+v chunk=%d workers=%d: %d reports, whole-chromosome scan %d (or in another order)",
						opt, chunk, workers, len(got), len(serial))
				}
			}
		}
	}
}

func TestCompileNetworkMergesAfterStride(t *testing.T) {
	specs, _ := kernelFixture(92)
	strided, err := arch.CompileNetwork(specs, arch.NetworkOptions{Merge: true, Stride2: true})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := arch.CompileNetwork(specs, arch.NetworkOptions{Merge: true})
	if err != nil {
		t.Fatal(err)
	}
	once, err := automata.Multistride2(merged)
	if err != nil {
		t.Fatal(err)
	}
	if strided.NumStates() >= once.NumStates() {
		t.Errorf("post-stride merge kept %d states, striding the merged network alone gives %d", strided.NumStates(), once.NumStates())
	}
	if _, err := arch.CompileNetwork(nil, arch.NetworkOptions{}); err == nil {
		t.Error("empty specs must error")
	}
}
