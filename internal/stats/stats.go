// Package stats provides the descriptive-statistics substrate used by every
// analysis in the reproduction: empirical CDFs, quantiles, latency
// histograms, box-plot summaries, correlation, top-k concentration
// shares, and the cumulative-table sampler behind every weighted draw. All
// functions are deterministic and allocation-conscious; inputs are never
// mutated unless the function name says so (e.g. SortInPlace).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the median of xs, or 0 for empty input.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It copies and sorts the input. Returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for already-sorted input. It panics if q is
// outside [0, 1].
func QuantileSorted(sorted []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either input has zero variance or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TopShare returns the fraction of the total of xs held by the largest
// ceil(frac*len(xs)) values. frac is clamped to [0, 1]. Returns 0 when the
// total is zero.
func TopShare(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	k := int(math.Ceil(frac * float64(len(s))))
	if k > len(s) {
		k = len(s)
	}
	var top, total float64
	for i, x := range s {
		if i < k {
			top += x
		}
		total += x
	}
	if total == 0 {
		return 0
	}
	return top / total
}
