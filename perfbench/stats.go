package main

import (
	"math"
	"sort"
)

// median of xs (NaN for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs (NaN for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile reports the q-quantile only when at least ten samples lie
// beyond it, the least a tail percentile needs to mean anything.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	if float64(len(xs))*(1-q) < 10 {
		return math.NaN(), false
	}
	return quantile(xs, q), true
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
