package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is mostly the one or two worst jobs
// of the run and moves between identical runs.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics. It refuses a quantile with
// fewer than minBeyond samples above it, so p90 needs at least 100.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	// The tolerance keeps 0.9*100 from rounding up to 91 ranks.
	if beyond := n - int(math.Ceil(p*float64(n)-1e-9)); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); zero for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
