package hscan

import (
	"math/rand"
	"testing"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
)

func TestPackedBitapMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6) // even and odd pattern counts
		specs := bothStrandSpecs(rng, n, 8+rng.Intn(6), rng.Intn(4))
		c := chromOf(rng, 8000, 0.02)
		e, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		if e.packed == nil {
			t.Fatalf("trial %d: uniform-geometry patterns should pack", trial)
		}
		var packed, scalar []automata.Report
		e.scanBitapPacked(c.Seq, 0, 0, &packed)
		e.scanBitap(c.Seq, 0, 0, &scalar)
		sortEm := func(s []automata.Report) {
			for i := 1; i < len(s); i++ {
				for j := i; j > 0 && (s[j].End < s[j-1].End || (s[j].End == s[j-1].End && s[j].Code < s[j-1].Code)); j-- {
					s[j], s[j-1] = s[j-1], s[j]
				}
			}
		}
		sortEm(packed)
		sortEm(scalar)
		if len(packed) != len(scalar) {
			t.Fatalf("trial %d: packed %d vs scalar %d", trial, len(packed), len(scalar))
		}
		for i := range packed {
			if packed[i] != scalar[i] {
				t.Fatalf("trial %d report %d: %v vs %v", trial, i, packed[i], scalar[i])
			}
		}
	}
}

func TestPackedBitapFullLengthGuides(t *testing.T) {
	// 20nt + NGG = 23 symbols: the realistic geometry must pack (<= 31).
	rng := rand.New(rand.NewSource(202))
	specs := bothStrandSpecs(rng, 4, 20, 5)
	e, err := New(specs, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	if e.packed == nil {
		t.Fatal("23-symbol windows must pack")
	}
	if len(e.packed) != 4 { // 8 specs -> 4 pairs
		t.Fatalf("pairs = %d, want 4", len(e.packed))
	}
}

func TestPackedBitapFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	// Mixed mismatch budgets must not pack.
	mixed := bothStrandSpecs(rng, 1, 10, 1)
	more := bothStrandSpecs(rng, 1, 10, 3)
	mixed = append(mixed, more...)
	e, err := New(mixed, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	if e.packed != nil {
		t.Error("mixed budgets must fall back to scalar")
	}
	// A single pattern does not pack.
	single := []PatternSpec{{Spacer: dna.MustParsePattern("ACGTACGT"), PAM: dna.MustParsePattern("NGG"), K: 1, Code: 0}}
	e, err = New(single, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	if e.packed != nil {
		t.Error("single pattern must not pack")
	}
	// Windows longer than 31 symbols cannot pack.
	long := bothStrandSpecs(rng, 2, 30, 1) // 30+3 = 33 > 31
	e, err = New(long, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	if e.packed != nil {
		t.Error("33-symbol windows must not pack")
	}
	// Fallback engines still produce correct results end to end.
	c := chromOf(rng, 6000, 0)
	got := collect(t, e, c)
	want := oracleGeneric(long, c.Seq)
	if len(got) != len(want) {
		t.Fatalf("fallback scan wrong: %d vs %d", len(got), len(want))
	}
}
