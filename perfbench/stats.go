package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(p, n)
	return sorted[min(max(r, 1), n)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples;
// the small slack keeps p = 99.9 from rounding up past an exact rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentiles are the percentiles a timing may be reported at, from
// the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// supportedTail returns the highest of tailPercentiles that leaves at
// least ten of n samples strictly beyond its nearest rank, or 0 when
// not even the median does.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the three cut points of data into four groups by
// the same rule as Python's statistics.quantiles(data, n=4) (the
// default "exclusive" method). It needs at least two values.
func quartiles(data []float64) [3]float64 {
	d := slices.Clone(data)
	slices.Sort(d)
	ld := len(d)
	var out [3]float64
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{d[0], d[0], d[0]}
		}
		return out
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out
}

// median is the middle quartile of data (the mean of the two middle
// values for an even count).
func median(data []float64) float64 {
	d := slices.Clone(data)
	slices.Sort(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// relSpread is the distance between the first and third quartile of
// data as a share of its median.
func relSpread(data []float64) float64 {
	q := quartiles(data)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// latencies collects durations and summarizes them in milliseconds.
type latencies []time.Duration

func (l latencies) sortedMs() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / 1e6
	}
	slices.Sort(out)
	return out
}

// pct returns the p-th percentile in milliseconds.
func (l latencies) pct(p float64) float64 { return percentile(l.sortedMs(), p) }
