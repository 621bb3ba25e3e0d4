package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted slice: the smallest value with at least p percent
// of the samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile among
// n samples. The small tolerance keeps 90 % of 100 at 90 when the product
// rounds a hair above the integer.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder are the tail percentiles considered for reporting.
var tailLadder = []float64{75, 90, 95, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten of n samples beyond it, so the reported tail is never
// a single outlier. ok is false when even the lowest rung has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n > 0 && n-rank(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// latency summarizes the samples of one op class.
type latency struct {
	N int `json:"n"`
	// Min shows the noise floor: interference only ever adds time, so a
	// median far above it marks a disturbed run.
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	// TailP is the percentile reported as Tail, 0 when the sample is too
	// small to support one.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// summarize sorts samples in place and reports their median and tail.
func summarize(samples []float64) latency {
	sort.Float64s(samples)
	l := latency{N: len(samples), Min: percentile(samples, 0), Median: percentile(samples, 50)}
	if p, ok := tailPercentile(len(samples)); ok {
		l.TailP, l.Tail = p, percentile(samples, p)
	}
	return l
}

// median returns the nearest-rank median without disturbing xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
