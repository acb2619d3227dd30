package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.99, 99},
		{hundred, 1.00, 100},
		{hundred, 0.001, 1},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4, 5}, 0.50, 3},
		{[]float64{1, 2, 3, 4}, 0.50, 2},
		{nil, 0.50, 0},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, want %g", len(c.sorted), c.p, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(vs, n=4)
// gives, because the acceptance runs are judged by that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		// statistics.quantiles([10, 2, 38, 23, 38, 23, 21], n=4) == [10.0, 23.0, 38.0]
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{42}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}
