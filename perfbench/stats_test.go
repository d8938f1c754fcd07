package main

import "testing"

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it; want an error")
	}
	xs = append(xs, 100)
	got, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	// Rank 0.9*99 = 89.1 interpolates between the 90th and 91st values.
	if want := 90.1; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("p90 = %v, want %v", got, want)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 100 samples leaves 5 beyond it; want an error")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
