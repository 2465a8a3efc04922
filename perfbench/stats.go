package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder holds the percentiles op_tail_s may report, in tenths of
// a percent, highest last.
var tailLadder = []int{500, 900, 990, 999}

// tailPercentile picks the highest ladder percentile that still leaves
// at least 10 samples above it, or 0 when there are fewer than 20
// samples.
func tailPercentile(n int) float64 {
	best := 0
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}
