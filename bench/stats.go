package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p95 read off 30 samples is its second-largest value, not a
// percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted xs by the
// nearest-rank rule, and whether it is supported: at least minBeyond samples
// must lie beyond the returned rank. xs must be sorted ascending.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= minBeyond
}

// tailPercentile is what stands in for an unsupported percentile where the
// result contract leaves no way to omit a metric: the highest percentile that
// still has minBeyond samples beyond it (30 samples give their 20th value,
// p66.7); with minBeyond samples or fewer, the maximum. It returns the value
// and the percentile it stands for, which the report prints beside it. xs
// must be sorted ascending.
func tailPercentile(xs []float64, p float64) (v, reported float64) {
	if v, ok := percentile(xs, p); ok {
		return v, p
	}
	n := len(xs)
	if n == 0 {
		return 0, p
	}
	rank := n - minBeyond
	if rank < 1 {
		return xs[n-1], 100
	}
	return xs[rank-1], 100 * float64(rank) / float64(n)
}

// median of unsorted xs (0 when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the f-quantile of xs by the exclusive method (the one
// statistics.quantiles uses): position f×(n+1), interpolated, clamped to the
// extremes. Empty xs give 0.
func quantile(xs []float64, f float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := f * float64(len(s)+1)
	lo := int(pos)
	if lo < 1 {
		return s[0]
	}
	if lo >= len(s) {
		return s[len(s)-1]
	}
	return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
}

// spread is the noise estimate printed beside a metric: the distance between
// the first and third quartile of the slice values as a share of their
// median — the figure the acceptance check computes across runs, taken here
// across the slices of one run (with two or three values the quartiles are the
// extremes, so it is their range). A single value gives 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := quantile(xs, 0.5)
	if m == 0 {
		return 0
	}
	return math.Abs(quantile(xs, 0.75)-quantile(xs, 0.25)) / math.Abs(m)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
