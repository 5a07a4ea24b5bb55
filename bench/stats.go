package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (nearest rank) of sorted values;
// 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedCopy returns vs in ascending order without touching the input.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minMax returns the extremes of vs; zeros for an empty sample.
func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// perOp divides a counter delta by an op count, 0 when nothing completed.
func perOp(delta float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return delta / float64(ops)
}
