package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs must be sorted and non-empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile with
// the "exclusive" method of Python's statistics.quantiles(xs, n=4) — the
// method the benchmark's spread rule is stated in. It needs at least
// two values; with one, all three are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1,
		// j = i*m // 4 clamped to [1, n-1], delta = i*m - j*4,
		// interpolate between s[j-1] and s[j].
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentile returns the p-th percentile (nearest rank) of xs; ok
// is false unless at least minBeyond samples lie beyond it, the least a
// tail percentile needs to mean anything.
func tailPercentile(xs []float64, p float64, minBeyond int) (value float64, ok bool) {
	s := sorted(xs)
	rank := max(1, int(math.Ceil(p/100*float64(len(s)))))
	if len(s)-rank < minBeyond {
		return 0, false
	}
	return s[rank-1], true
}
