package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice: the smallest element with at least p % of the sample at
// or below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 50th nearest-rank percentile of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// sliceQuartile cuts xs — latencies in op order — into consecutive slices
// of per ops (a shorter remainder is left out), takes each slice's
// nearest-rank p-th percentile times scale(lo, hi) — the host-speed factor
// of the seconds in which ops lo … hi−1 ran, nil for none — and returns the
// lower quartile of those with the number of slices. On a shared host
// whatever else runs there only ever adds time, for seconds at a stretch: the
// quietest quarter of a run is the best estimate of what the program itself
// costs, and it stays put when a neighbour, a halted vCPU's wake-up or a
// forced recluster slows the rest. Fewer than per samples make one slice.
func sliceQuartile(xs []float64, per int, p float64, scale func(lo, hi int) float64) (float64, int) {
	if scale == nil {
		scale = func(int, int) float64 { return 1 }
	}
	if len(xs) < per || per < 1 {
		return percentile(sortedCopy(xs), p) * scale(0, len(xs)), 1
	}
	vals := make([]float64, len(xs)/per)
	for s := range vals {
		lo, hi := s*per, (s+1)*per
		vals[s] = percentile(sortedCopy(xs[lo:hi]), p) * scale(lo, hi)
	}
	return percentile(sortedCopy(vals), 25), len(vals)
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run steadiness measure the benchmark contract uses. Quartiles
// follow Python's statistics.quantiles(xs, n=4) (exclusive method), so the
// number agrees with the driver's.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		// Like Python, interpolate (or extrapolate) from the clamped j.
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
