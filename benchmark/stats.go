package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at or
// below it. Exact samples in, one of them out — no interpolation, no buckets.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle sample of xs (the mean of the two middle ones for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sumOf adds up xs.
func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailPercentiles are the candidate tail percentiles, lowest first.
var tailPercentiles = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// supportedTail returns the highest candidate percentile that still has at
// least ten samples beyond it among n samples — the highest tail the sample
// supports. A p99 needs 1000 samples by this rule; below 20 samples only the
// median is supported.
func supportedTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		// beyond = samples strictly above the nearest-rank position.
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

// millis converts exact duration samples to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// nanos converts exact duration samples to nanoseconds, unsorted.
func nanos(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// relWorse returns by how much b is worse than a as a share of a, signed so
// that positive means worse, for a metric whose better direction is given.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}
