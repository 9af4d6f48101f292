package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of raw samples by linear
// interpolation between the two closest ranks: rank h = (n−1)·q, value
// x[⌊h⌋] + (h−⌊h⌋)·(x[⌊h⌋+1] − x[⌊h⌋]) on the sorted samples. Unlike a
// bucketed histogram quantile it is an observed value (or between two),
// never a bucket edge. NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := samples
	if !sort.Float64sAreSorted(s) {
		s = append([]float64(nil), s...)
		sort.Float64s(s)
	}
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// medianOr0 is median with 0 for an empty sample (a layer the workload
// never reached).
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
