package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the "percentile" is a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// sample. It refuses when fewer than minBeyond samples lie beyond the rank,
// so a p95 is never the maximum of a few requests.
func percentile(sample []time.Duration, p float64) (time.Duration, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0,100)", p)
	}
	n := len(sample)
	if n == 0 {
		return 0, fmt.Errorf("p%v of an empty sample", p)
	}
	sorted := append([]time.Duration(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Nearest rank: the smallest value with at least p% of the sample at or
	// below it.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value (mean of the two middle values for an even
// count), or 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// spreadShare is (max-min)/median of the values: how far the rounds of one
// run disagree, printed so an over-tight bound is visible.
func spreadShare(v []float64) float64 {
	m := median(v)
	if len(v) == 0 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return (hi - lo) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
