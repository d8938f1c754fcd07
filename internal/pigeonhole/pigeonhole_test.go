package pigeonhole

import (
	"math/rand"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
)

// TestGeometryCoversEveryMismatchSplit checks the guarantee for every
// geometry the engines can build over spacers of up to 32 bases: for
// every L <= 32, fragment count J, width W <= floor(L/J) and budget
// K <= L, every way of spreading at most K mismatches over the fragments
// leaves at least one fragment within radius floor(K/J). A split with a
// fragment within radius already satisfies the claim, so the search
// only descends through fragments above radius and must never complete
// one. It also checks that the fragments are in bounds and disjoint.
func TestGeometryCoversEveryMismatchSplit(t *testing.T) {
	for l := 1; l <= 32; l++ {
		for j := 1; j <= l; j++ {
			for w := 1; w <= l/j; w++ {
				g, ok := New(l, j, w)
				if !ok {
					t.Fatalf("New(%d, %d, %d) rejected a disjoint geometry", l, j, w)
				}
				for f := 0; f < j; f++ {
					off := g.Offset(f)
					if off < 0 || off+w > l {
						t.Fatalf("L=%d J=%d W=%d: fragment %d at %d out of bounds", l, j, w, f, off)
					}
					if f > 0 && off < g.Offset(f-1)+w {
						t.Fatalf("L=%d J=%d W=%d: fragments %d and %d overlap", l, j, w, f-1, f)
					}
				}
				for k := 0; k <= l; k++ {
					if split, found := uncoveredSplit(g, k); found {
						t.Fatalf("L=%d J=%d W=%d K=%d: mismatch split %v has no fragment within radius %d", l, j, w, k, split, g.Radius(k))
					}
				}
			}
		}
	}
}

// uncoveredSplit searches for per-fragment mismatch counts (each at most
// the width, summing to at most k) with every fragment above radius.
func uncoveredSplit(g Geometry, k int) ([]int, bool) {
	r := g.Radius(k)
	split := make([]int, 0, g.J)
	var dfs func(used int) bool
	dfs = func(used int) bool {
		if len(split) == g.J {
			return true
		}
		for m := r + 1; m <= g.Width && used+m <= k; m++ {
			split = append(split, m)
			if dfs(used + m) {
				return true
			}
			split = split[:len(split)-1]
		}
		return false
	}
	return split, dfs(0)
}

func TestNewRejectsOverlappingGeometry(t *testing.T) {
	for _, c := range [][3]int{{20, 0, 5}, {20, 4, 6}, {20, 4, 0}, {3, 4, 1}} {
		if _, ok := New(c[0], c[1], c[2]); ok {
			t.Errorf("New(%d, %d, %d) accepted", c[0], c[1], c[2])
		}
	}
}

// TestEveryWindowWithinBudgetHasAFragmentWithinRadius is the
// sequence-level form of the guarantee: for random spacers (some with N
// positions, which never cost a mismatch) and random windows within
// budget, with mismatches anywhere in the spacer, some fragment of the
// window is within the geometry's radius of that spacer fragment.
func TestEveryWindowWithinBudgetHasAFragmentWithinRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		l := 1 + rng.Intn(32)
		j := 1 + rng.Intn(l)
		g, _ := New(l, j, 1+rng.Intn(l/j))
		k := rng.Intn(l + 1)
		spacer := make(dna.Pattern, l)
		window := make(dna.Seq, l)
		for i := range spacer {
			b := dna.Base(rng.Intn(4))
			spacer[i] = dna.Mask(1) << b
			if rng.Intn(10) == 0 {
				spacer[i] = dna.MaskAny
			}
			window[i] = b
		}
		for m := rng.Intn(k + 1); m > 0; m-- {
			window[rng.Intn(l)] = dna.Base(rng.Intn(4))
		}
		if spacer.Mismatches(window) > k {
			continue
		}
		found := false
		for f := 0; f < j && !found; f++ {
			off := g.Offset(f)
			found = spacer[off:off+g.Width].Mismatches(window[off:off+g.Width]) <= g.Radius(k)
		}
		if !found {
			t.Fatalf("L=%d J=%d W=%d K=%d: window %v of spacer %v has no fragment within radius", l, j, g.Width, k, window, spacer)
		}
	}
}
