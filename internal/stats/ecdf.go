package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a fixed sample.
// The zero value is an empty distribution; build one with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied and sorted.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns F(x) = P(X ≤ x), the fraction of samples ≤ x.
// Returns 0 for an empty distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index with sorted[i] >= x; advance
	// past duplicates equal to x so the CDF is right-continuous (≤ x).
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the sample.
func (e *ECDF) Quantile(q float64) float64 { return QuantileSorted(e.sorted, q) }

// Min returns the smallest sample, or 0 if empty.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[0]
}

// Max returns the largest sample, or 0 if empty.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[len(e.sorted)-1]
}

// String summarises the distribution for debugging.
func (e *ECDF) String() string {
	return fmt.Sprintf("ECDF(n=%d min=%g p50=%g p90=%g max=%g)",
		e.Len(), e.Min(), e.Quantile(0.5), e.Quantile(0.9), e.Max())
}

// Box summarises a sample for a box-and-whisker plot.
type Box struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
	Outliers                 int // points beyond 1.5×IQR whiskers
}

// NewBox computes a Box summary of xs.
func NewBox(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	s := sortedCopy(xs)
	b := Box{
		Min:    s[0],
		Q1:     QuantileSorted(s, 0.25),
		Median: QuantileSorted(s, 0.5),
		Q3:     QuantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
	iqr := b.Q3 - b.Q1
	lo, hi := b.Q1-1.5*iqr, b.Q3+1.5*iqr
	for _, x := range s {
		if x < lo || x > hi {
			b.Outliers++
		}
	}
	return b
}

// maxDistinct is the most distinct values sortedCopy counts; a sample with
// more is comparison-sorted.
const maxDistinct = 512

// sortedCopy returns the copy of xs that sort.Float64s sorts. A sample of
// few distinct values (Fig 8's daily fractions take at most 289) is
// counted value by value in a small hash table, and the runs are written
// out in value order. Equal values have equal bits, so that is the
// comparison sort's slice bit for bit, except where values compare equal
// with different bits: a NaN, or -0 beside +0, which sort.Float64s leaves
// in an order of its own. Such a sample, and one of more than maxDistinct
// values, is handed to sort.Float64s.
func sortedCopy(xs []float64) []float64 {
	const empty = 0x7ff8_0000_0000_0001 // a NaN's bits: no counted value has them
	var keys [2 * maxDistinct]uint64    // a value's bits, or empty
	var counts [2 * maxDistinct]int
	for i := range keys {
		keys[i] = empty
	}
	distinct := 0
	for _, x := range xs {
		if x != x {
			return comparisonSorted(xs)
		}
		b := math.Float64bits(x)
		i := b * 0x9e3779b97f4a7c15 >> 54 // the top log2(len(keys)) bits
		for keys[i] != b {
			if keys[i] == empty {
				if distinct == maxDistinct {
					return comparisonSorted(xs)
				}
				distinct++
				keys[i] = b
				break
			}
			i = (i + 1) % uint64(len(keys))
		}
		counts[i]++
	}
	type run struct {
		x float64
		n int
	}
	runs := make([]run, 0, distinct)
	for i, b := range keys {
		if b != empty {
			runs = append(runs, run{math.Float64frombits(b), counts[i]})
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.x, b.x) })
	s := make([]float64, 0, len(xs))
	for i, r := range runs {
		if r.x == 0 && i > 0 && runs[i-1].x == 0 {
			return comparisonSorted(xs) // -0 and +0
		}
		for range r.n {
			s = append(s, r.x)
		}
	}
	return s
}

func comparisonSorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}
