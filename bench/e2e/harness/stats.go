// Package harness holds the measurement arithmetic of the end-to-end
// benchmark (bench/e2e): percentiles, rank correlation, span self-time and
// the output checker. It knows nothing about unigpu, so every function is
// testable against hand-computed values.
package harness

import (
	"math"
	"sort"
)

// Percentile returns the q-quantile (0..1) of xs by linear interpolation
// between the two closest ranks (the "inclusive" definition: q=0 is the
// minimum, q=1 the maximum, q=0.5 the median). xs need not be sorted and is
// not modified. An empty sample has no percentile: NaN.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	r := q * float64(len(s)-1)
	lo := int(r)
	if lo+1 == len(s) {
		return s[lo]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Mean is the arithmetic mean; NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TrimmedMean is the mean of xs without its smallest and its largest
// frac*len(xs) values, each count rounded down. xs is not modified.
func TrimmedMean(xs []float64, frac float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	trim := int(frac * float64(len(s)))
	return Mean(s[trim : len(s)-trim])
}

// ranks assigns 1-based ranks, ties sharing the mean of their positions.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = mean
		}
		i = j + 1
	}
	return r
}

// Spearman is the rank correlation of x and y: Pearson's coefficient of
// their tie-averaged ranks. It is NaN when the samples differ in length,
// have fewer than two points, or either is constant.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	rx, ry := ranks(x), ranks(y)
	mx, my := Mean(rx), Mean(ry)
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Host normalisation. A measurement taken while the host ran slow[i] times
// slower than the reference host is divided by slow[i], which states it in
// reference-host time.

// Normalised divides each sample by the slowdown of the stretch it was taken
// in; stretch[i] indexes slow.
func Normalised(xs []float64, stretch []int, slow []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / slow[stretch[i]]
	}
	return out
}

// NormalisedRate is count events over the stretches' reference-host seconds,
// the sum of seconds[i] / slow[i].
func NormalisedRate(count int, seconds, slow []float64) float64 {
	var s float64
	for i, sec := range seconds {
		s += sec / slow[i]
	}
	return float64(count) / s
}
