package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder a tail falls back along when a run holds
// too few samples for the workload's percentile.
var tailPercentiles = []int{99, 95, 90, 75}

// tail returns the value at the highest ladder percentile, no higher than
// want, with at least ten samples beyond it, and that percentile. Failing
// that, it returns the median at percentile 50.
func tail(xs []float64, want int) (value float64, percentile int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := (p*n + 99) / 100 // nearest rank: 1-based ceil(p*n/100)
		if p <= want && n-rank >= 10 {
			return s[rank-1], p
		}
	}
	return median(xs), 50
}
