package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// refNewBox is NewBox as it was before it counted runs: a copy sorted by
// sort.Float64s.
func refNewBox(xs []float64) Box {
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

func sameBox(a, b Box) bool {
	bits := func(x Box) [6]uint64 {
		return [6]uint64{math.Float64bits(x.Min), math.Float64bits(x.Q1), math.Float64bits(x.Median),
			math.Float64bits(x.Q3), math.Float64bits(x.Max), math.Float64bits(x.Mean)}
	}
	return bits(a) == bits(b) && a.N == b.N && a.Outliers == b.Outliers
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// boxPalette is what fuzz bytes below 0x80 pick from: duplicates come from
// picking one twice.
var boxPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 288, 2.0 / 288, 287.0 / 288,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e-300, 3,
}

// decodeBox turns fuzz bytes into a sample: a byte below 0x80 picks from
// boxPalette, any other byte takes the next eight as a value's raw bits,
// NaN payloads and all.
func decodeBox(data []byte) []float64 {
	var xs []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b < 0x80 || len(data) < 8 {
			xs = append(xs, boxPalette[int(b)%len(boxPalette)])
			continue
		}
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return xs
}

// FuzzNewBox holds NewBox to the comparison sort it replaced, bit for bit,
// and sortedCopy itself to sort.Float64s.
//
// NaN policy: a sample with a NaN, or with both -0 and +0, is sorted by
// sort.Float64s itself, whose order among values that compare equal with
// different bits no other sort can promise to repeat; its box is then the
// reference's by construction, NaN and all.
func FuzzNewBox(f *testing.F) {
	f.Add([]byte{0, 1})                                  // both zeros
	f.Add([]byte{16, 2, 5})                              // a NaN
	f.Add([]byte{8, 9, 10, 11, 0, 14, 15, 13})           // subnormals, the smallest normal, ±Inf
	f.Add([]byte{5, 5, 5, 6, 7, 7, 0, 0, 0})             // Fig 8's daily fractions, with duplicates
	f.Add([]byte{0xff, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3}) // a NaN with a payload
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := decodeBox(data)
		want := slices.Clone(xs)
		sort.Float64s(want)
		if got := sortedCopy(xs); !sameBits(got, want) {
			t.Fatalf("sortedCopy(%v) = %v, sort.Float64s gives %v", xs, got, want)
		}
		if got, want := NewBox(xs), refNewBox(xs); !sameBox(got, want) {
			t.Fatalf("NewBox(%v) = %+v, reference %+v", xs, got, want)
		}
	})
}

// A sample past maxDistinct values is comparison-sorted, also when the
// value that overflows the table comes last; one at the limit is counted.
func TestNewBoxManyDistinct(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, distinct := range []int{maxDistinct, maxDistinct + 1, 5000} {
		xs := make([]float64, 0, 4*distinct)
		for len(xs) < 4*distinct-1 {
			xs = append(xs, float64(r.IntN(distinct-1))/7-10)
		}
		xs = append(xs, 1e6) // the last distinct value
		for _, s := range [][]float64{xs, slices.Concat(xs, []float64{math.Copysign(0, -1), 0})} {
			want := slices.Clone(s)
			sort.Float64s(want)
			if !sameBits(sortedCopy(s), want) {
				t.Fatalf("%d distinct values: sortedCopy differs from sort.Float64s", distinct)
			}
			if got, want := NewBox(s), refNewBox(s); !sameBox(got, want) {
				t.Fatalf("%d distinct values: NewBox %+v, reference %+v", distinct, got, want)
			}
		}
	}
}

// fig8Sample is shaped like Fig 8's input: n daily downtime fractions
// k/288, most days without an outage and a few down all day.
func fig8Sample(n int) []float64 {
	r := rand.New(rand.NewPCG(8, 288))
	xs := make([]float64, n)
	for i := range xs {
		switch u := r.Float64(); {
		case u < 0.6:
		case u < 0.65:
			xs[i] = 1
		default:
			xs[i] = float64(min(287, 1+int(r.ExpFloat64()*30))) / 288
		}
	}
	return xs
}

func TestNewBoxFig8Shaped(t *testing.T) {
	for _, n := range []int{1, 2, 1000, 120_000} {
		xs := fig8Sample(n)
		if got, want := NewBox(xs), refNewBox(xs); !sameBox(got, want) {
			t.Fatalf("%d values: NewBox %+v, reference %+v", n, got, want)
		}
	}
}

// BenchmarkNewBox summarises Fig 8's Mastodon box: about 120K daily
// fractions on the benchmark's world.
func BenchmarkNewBox(b *testing.B) {
	xs := fig8Sample(120_000)
	for _, k := range []struct {
		name string
		f    func([]float64) Box
	}{{"runs", NewBox}, {"sort", refNewBox}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				k.f(xs)
			}
		})
	}
}
