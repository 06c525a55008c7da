package main

import (
	"fmt"
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p50 at least 21.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by nearest
// rank, and whether at least minTail samples lie strictly above it.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minTail
}

// latency summarizes one phase's per-delivery latencies in nanoseconds.
type latency struct {
	n        int
	p50, p99 int64
	err      error // set when a percentile lacks minTail samples beyond it
}

func summarize(samples []int64) latency {
	s := slices.Clone(samples)
	slices.Sort(s)
	l := latency{n: len(s)}
	var ok50, ok99 bool
	l.p50, ok50 = percentile(s, 0.50)
	l.p99, ok99 = percentile(s, 0.99)
	if !ok50 || !ok99 {
		l.err = fmt.Errorf("%d samples: a p99 needs %d beyond it", len(s), minTail)
	}
	return l
}

// median of float64 values (mean of the middle two for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
