package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refCumIndex is the whole-table bisection every weighted draw ran before
// CumSampler: SearchFloat64s over the scaled target, clamped to the last
// entry.
func refCumIndex(cum []float64, u float64) int {
	i := sort.SearchFloat64s(cum, u*cum[len(cum)-1])
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

// cumOf accumulates weights the way every caller builds its table.
func cumOf(ws []float64) []float64 {
	cum := make([]float64, len(ws))
	total := 0.0
	for i, w := range ws {
		total += w
		cum[i] = total
	}
	return cum
}

// normalised divides a table by its total, as the generator's power laws
// and categorical weights do.
func normalised(cum []float64) []float64 {
	total := cum[len(cum)-1]
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// powerLawCum is the generator's degree table: P(k) ∝ k^-alpha on [1, max].
func powerLawCum(alpha float64, max int) []float64 {
	ws := make([]float64, max)
	for k := range ws {
		ws[k] = math.Pow(float64(k+1), -alpha)
	}
	return normalised(cumOf(ws))
}

// probes returns the draws most likely to expose a wrong guide bucket: both
// ends of [0,1), every bucket edge g/K with its two float neighbours, and
// every u whose scaled target lands on or beside a table entry.
func probes(s *CumSampler) []float64 {
	below1 := math.Nextafter(1, 0)
	us := []float64{0, math.SmallestNonzeroFloat64, 0.5, below1}
	add := func(u float64) {
		if u >= 0 && u < 1 {
			us = append(us, u, math.Nextafter(u, 0), math.Min(math.Nextafter(u, 1), below1))
		}
	}
	k := float64(len(s.guide) - 1)
	for g := 1.0; g < k; g++ {
		add(g / k)
	}
	if total := s.cum[len(s.cum)-1]; total > 0 {
		for _, c := range s.cum {
			add(c / total)
		}
	}
	return us
}

// checkSampler holds Index to the bisection at every probe and extra draw,
// and IndexBits to Index at the 53-bit draws on and either side of each,
// under high bits that rand.Rand.Float64 discards.
func checkSampler(t *testing.T, cum []float64, extra ...float64) {
	t.Helper()
	s := NewCumSampler(cum)
	for i, u := range append(probes(s), extra...) {
		want := refCumIndex(cum, u)
		if got := s.Index(u); got != want {
			t.Fatalf("table of %d (total %g): Index(%v) = %d, bisection says %d", len(cum), cum[len(cum)-1], u, got, want)
		}
		m := uint64(u * (1 << 53))
		high := uint64(i) * 0x9e3779b97f4a7c15 << 53
		for _, b := range []uint64{m, m - 1, m + 1} {
			b &= 1<<53 - 1
			want := s.Index(float64(b) / (1 << 53))
			if got := s.IndexBits(high | b); got != want {
				t.Fatalf("table of %d: IndexBits(%#x) = %d, Index of its Float64 says %d", len(cum), high|b, got, want)
			}
		}
	}
}

func TestCumSamplerMatchesBisection(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	pareto := make([]float64, 3000)
	for i := range pareto {
		pareto[i] = math.Pow(1-r.Float64(), -1/0.9) // infinite-mean fame, as the generator draws it
	}
	equalRuns := make([]float64, 200)
	for i := range equalRuns {
		if i%17 == 0 {
			equalRuns[i] = float64(1 + i%5)
		}
	}
	tables := map[string][]float64{
		"one entry":       cumOf([]float64{3}),
		"one zero entry":  cumOf([]float64{0}),
		"two entries":     cumOf([]float64{1, 1}),
		"all zero":        cumOf(make([]float64, 9)),
		"zero head":       cumOf([]float64{0, 0, 0, 2, 1}),
		"zero tail":       cumOf([]float64{2, 1, 0, 0, 0}),
		"zero interior":   cumOf([]float64{1, 0, 3}),
		"equal runs":      cumOf(equalRuns),
		"one giant":       cumOf([]float64{1, 1, 1e12, 1, 1, 1, 1}),
		"denormal total":  cumOf([]float64{5e-324, 0, 1e-323, 5e-324, 0, 5e-324, 1.5e-323}),
		"tiny total":      cumOf([]float64{1e-310, 3e-310, 0, 2e-310, 1e-310}),
		"1e300 total":     cumOf([]float64{1e299, 3e299, 0, 2e299, 4e299, 1e283}),
		"pareto fame":     cumOf(pareto),
		"power law":       powerLawCum(1.9, 5000),
		"power law small": powerLawCum(2.5, 3),
		"weighted":        normalised(cumOf([]float64{1, 0, 3, 0.5, 0, 7})),
		"power of two":    cumOf([]float64{1, 2, 3, 4, 5, 6, 7, 8}),
		"power of two +1": cumOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}),
	}
	for name, cum := range tables {
		t.Run(name, func(t *testing.T) {
			random := make([]float64, 2000)
			for i := range random {
				random[i] = r.Float64()
			}
			checkSampler(t, cum, random...)
		})
	}
}

// A bucket is marked exactly when its two ends agree, so a Pareto table's
// draws mostly skip the search: in the generator's fame tables most
// buckets fall inside one celebrity's share.
func TestCumSamplerMarksSingleAnswerBuckets(t *testing.T) {
	cum := cumOf([]float64{1, 1e6, 1, 1, 1, 1, 1, 1, 1})
	s := NewCumSampler(cum)
	marked := 0
	for g := 0; g+1 < len(s.guide); g++ {
		lo, hi := unmark(s.guide[g]), unmark(s.guide[g+1])
		if (s.guide[g] < 0) != (lo == hi) {
			t.Errorf("bucket %d spans [%d, %d] but marked is %v", g, lo, hi, s.guide[g] < 0)
		}
		if s.guide[g] < 0 {
			marked++
		}
	}
	if s.guide[len(s.guide)-1] < 0 {
		t.Error("the closing guide entry is marked")
	}
	if marked < len(s.guide)-3 {
		t.Errorf("%d of %d buckets marked, want all but the two the giant's ends touch", marked, len(s.guide)-1)
	}
}

// A draw must advance the stream by exactly the one Float64 the bisections
// consumed, or every later draw of the unit shifts.
func TestCumSamplerConsumesOneDraw(t *testing.T) {
	cum := normalised(cumOf([]float64{1, 2, 3, 4}))
	s := NewCumSampler(cum)
	a, b := rand.New(rand.NewPCG(3, 4)), rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 100; i++ {
		if got, want := s.Sample(a), refCumIndex(cum, b.Float64()); got != want {
			t.Fatalf("draw %d: Sample = %d, bisection of the same Float64 says %d", i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Sample consumed more or less than one Float64")
	}
}

func TestCumSamplerPanicsOnEmptyTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for an empty table")
		}
	}()
	NewCumSampler(nil)
}

// FuzzCumSampler builds a table from the bytes — a 3-bit mantissa (so zero
// weights and equal runs are common) under a 5-bit exponent class spanning
// 2^-900..2^900 — and holds Index to the bisection at u and at every probe,
// and IndexBits on the raw draw b to Index of b's Float64.
func FuzzCumSampler(f *testing.F) {
	f.Add([]byte{0x81}, 0.0, uint64(0))
	f.Add([]byte{0x81, 0x80, 0x83, 0x80, 0x80, 0x87}, 0.25, uint64(1<<63|1<<52))
	f.Add([]byte{0x01, 0xff, 0x02, 0xf9, 0x00, 0x0b, 0x7c}, 0.999999, uint64(math.MaxUint64))
	f.Add([]byte{0x00, 0x00, 0x00}, 0.5, uint64(1<<53))
	f.Add([]byte{0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff, 0xf9, 0xf8, 0xfa}, 0.125, uint64(0x123456789abcdef))
	f.Fuzz(func(t *testing.T, table []byte, u float64, b uint64) {
		if len(table) == 0 || len(table) > 1<<12 {
			t.Skip()
		}
		ws := make([]float64, len(table))
		for i, b := range table {
			ws[i] = math.Ldexp(float64(b&7), (int(b>>3)-16)*60-60)
		}
		u = math.Abs(u)
		u -= math.Floor(u)
		if !(u >= 0 && u < 1) { // NaN, ±Inf
			u = 0
		}
		cum := cumOf(ws)
		checkSampler(t, cum, u)
		s := NewCumSampler(cum)
		if got, want := s.IndexBits(b), s.Index(float64(b<<11>>11)/(1<<53)); got != want {
			t.Fatalf("IndexBits(%#x) = %d, Index of its Float64 says %d", b, got, want)
		}
	})
}
