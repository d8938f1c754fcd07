// Package pigeonhole is the fragment geometry behind the exact filters
// of two engines: the seed-index engine (guide fragments probe a genome
// k-mer table) and the hyperscan prefilter kernel (fragments of the
// genome window probe a guide table). Both cut a spacer the same way
// and rely on the same proof, kept here once.
//
// Geometry: a spacer of length L is cut into J disjoint fragments of
// Width bases at offsets floor(f*L/J), f = 0..J-1. Width <= floor(L/J)
// keeps them disjoint, because consecutive offsets differ by at least
// floor(L/J).
//
// Guarantee: a pattern with mismatch budget K probes every fragment
// within Hamming radius r = floor(K/J). If a window had more than r
// mismatches in every fragment, its total would be at least
// J*(r+1) = J*floor(K/J) + J >= K + 1, over budget. So every window
// within budget matches at least one fragment within radius. Positions
// outside every fragment only add mismatches and never weaken this.
package pigeonhole

// Geometry is one way of cutting a spacer into disjoint fragments.
type Geometry struct {
	// L is the spacer length.
	L int
	// J is the fragment count.
	J int
	// Width is the number of bases in each fragment.
	Width int
}

// New returns the geometry of j fragments of width bases over a spacer
// of l bases. ok is false unless 1 <= j and 1 <= width <= floor(l/j),
// the condition that keeps the fragments disjoint.
func New(l, j, width int) (g Geometry, ok bool) {
	if j < 1 || width < 1 || width > l/j {
		return Geometry{}, false
	}
	return Geometry{L: l, J: j, Width: width}, true
}

// Offset returns the spacer offset of fragment f.
func (g Geometry) Offset(f int) int { return f * g.L / g.J }

// Radius returns the per-fragment Hamming radius for budget k.
func (g Geometry) Radius(k int) int { return k / g.J }
