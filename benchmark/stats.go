package main

import (
	"math"
	"slices"
)

// quantileSorted returns the q-quantile (0 <= q <= 1) of an ascending
// slice by the nearest-rank rule: the smallest element with at least
// ceil(q*n) elements at or below it. It reads exact recorded samples, never
// a bucketed histogram, so a p50 is a value that was actually measured.
func quantileSorted(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quantile sorts a copy of samples and returns its q-quantile.
func quantile(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	slices.Sort(s)
	return quantileSorted(s, q)
}

// median returns the median of vals (mean of the two middle values for an
// even count); vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the interquartile mean: the mean of what is left after the
// lowest and the highest quarter of vals are dropped. Like the median it
// ignores a few disturbed windows; unlike it, it does not jump between two
// clusters when about half the windows contain a garbage-collection cycle
// and half do not (eight same-code runs of ingest_recover: median-window
// throughput spread 14.7 %, interquartile-mean 4.7 %).
func midMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(vals, n=4) (the "exclusive" method), which
// is what the acceptance pipeline computes spreads with.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i in 1..3
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadPct is the interquartile range of vals as a percentage of their
// median: the noise figure every bound in BENCHMARK.json is judged against.
func spreadPct(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return 100 * (q3 - q1) / math.Abs(m)
}
