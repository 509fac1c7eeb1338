package stats

import (
	"fmt"
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
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
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
