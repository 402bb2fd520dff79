package main

import "repro/internal/stats"

// tailLadder lists the percentiles a report may quote as its tail, from
// the highest down.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// median is the 50th percentile by linear interpolation (0 for an empty
// sample, which callers only report for a layer that did no work).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, p/100)
}

// tailPercentile returns the highest percentile on tailLadder that still
// has at least ten of n samples beyond it, and false when n is too small
// for even the median to qualify.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// The tolerance absorbs the rounding of 100-p (e.g. 100-99.9).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}
