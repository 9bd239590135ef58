package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles the tail rule chooses from, highest
// first, in tenths of a percent so the rule is exact integer arithmetic.
var tailLevels = []int{999, 990, 900}

// tailPercentile returns the highest percentile in tailLevels that has at
// least ten of n samples beyond it, falling back to the median.
func tailPercentile(n int) float64 {
	for _, l := range tailLevels {
		if n*(1000-l) >= 10*1000 {
			return float64(l) / 10
		}
	}
	return 50
}

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. An empty
// sample reads 0, which JSON can carry and a NaN cannot.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }
