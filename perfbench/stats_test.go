package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	ramp := make([]float64, 101) // 0, 1, ..., 100
	for i := range ramp {
		ramp[i] = float64(i)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{7}, 50, 7},
		{nil, 50, 0},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{10, 20}, 90, 19},
		{ramp, 99, 99},
		{ramp, 99.9, 99.9},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}
