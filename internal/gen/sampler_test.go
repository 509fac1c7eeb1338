package gen

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refCumIndex is the whole-table bisection powerLaw, weighted, fameSampler
// and twitter.Graph each ran per draw before CumSampler: SearchFloat64s over
// the scaled target, clamped to the last entry.
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

func checkSampler(t *testing.T, cum []float64, extra ...float64) {
	t.Helper()
	s := NewCumSampler(cum)
	for _, u := range append(probes(s), extra...) {
		if got, want := s.Index(u), refCumIndex(cum, u); got != want {
			t.Fatalf("table of %d (total %g): Index(%v) = %d, bisection says %d", len(cum), cum[len(cum)-1], u, got, want)
		}
	}
}

func TestCumSamplerMatchesBisection(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	pareto := make([]float64, 3000)
	for i := range pareto {
		pareto[i] = math.Pow(1-r.Float64(), -1/0.9) // infinite-mean fame, as genUsers draws it
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
		"power law":       newPowerLaw(1.9, 5000).cum,
		"power law small": newPowerLaw(2.5, 3).cum,
		"weighted":        newWeighted([]float64{1, 0, 3, 0.5, 0, 7}).cum,
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

// A draw must advance the stream by exactly the one Float64 the bisections
// consumed, or every later draw of the unit shifts.
func TestCumSamplerConsumesOneDraw(t *testing.T) {
	s := newWeighted([]float64{1, 2, 3, 4})
	a, b := rand.New(rand.NewPCG(3, 4)), rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 100; i++ {
		if got, want := s.Sample(a), refCumIndex(s.cum, b.Float64()); got != want {
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
// 2^-900..2^900 — and holds Index to the bisection at u and at every probe.
func FuzzCumSampler(f *testing.F) {
	f.Add([]byte{0x81}, 0.0)
	f.Add([]byte{0x81, 0x80, 0x83, 0x80, 0x80, 0x87}, 0.25)
	f.Add([]byte{0x01, 0xff, 0x02, 0xf9, 0x00, 0x0b, 0x7c}, 0.999999)
	f.Add([]byte{0x00, 0x00, 0x00}, 0.5)
	f.Add([]byte{0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff, 0xf9, 0xf8, 0xfa}, 0.125)
	f.Fuzz(func(t *testing.T, table []byte, u float64) {
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
		checkSampler(t, cumOf(ws), u)
	})
}
