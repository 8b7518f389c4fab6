package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first, second and third quartiles of xs with the
// same method as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so compare reports the spreads the benchmark contract uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t / float64(len(xs))
}
