package main

import (
	"math"
	"sort"

	"pacevm/internal/stats"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, and
// how many samples lie strictly beyond that rank. xs need not be sorted;
// it is sorted in place. +Inf entries (failed operations) sort last, so a
// refused request counts as missing any latency limit. An empty sample
// yields NaN.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// layerPercentile is percentile for a per-layer metric: zero when the
// layer did no work.
func layerPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, p)
	return v
}

// tailSupported reports whether a sample of n values puts at least ten
// samples beyond the nearest-rank p-quantile — the smallest sample a
// reported tail percentile may rest on.
func tailSupported(n int, p float64) bool {
	rank := int(math.Ceil(p * float64(n)))
	return n-rank >= 10
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// spread definition benchmark acceptance uses. It needs two or more
// values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(stats.Median(xs))
}
