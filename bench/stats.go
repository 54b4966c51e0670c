package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be trusted (choosing-metrics guide, section 1).
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample, or 0 for an empty one.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median returns the median of xs (0 for an empty sample).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailPercentile returns the p-th percentile of an ascending sample and
// the percentile actually reported. When fewer than minBeyond samples
// lie beyond the p-th percentile it falls back to the highest percentile
// that still has minBeyond samples beyond it; a sample too small for
// even that reports its median.
func tailPercentile(asc []float64, p float64) (value, reported float64) {
	n := len(asc)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p*float64(n)/100)) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
	}
	if i < 0 {
		return quantile(asc, 0.5), 50
	}
	return asc[i], 100 * float64(i+1) / float64(n)
}

// in expresses d in the given unit, e.g. in(d, time.Millisecond).
func in(d, unit time.Duration) float64 { return float64(d) / float64(unit) }

// allIn expresses every duration of ds in the given unit.
func allIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = in(d, unit)
	}
	return out
}

// pairedDiff returns a[i]-b[i] over the common prefix: two rungs of the
// ladder measured on the same requests, so the difference is the upper
// rung's self time on each request.
func pairedDiff(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

// mean returns the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
