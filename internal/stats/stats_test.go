package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("got %g, want %g (±%g)", got, want, tol)
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"fractional", []float64{0.5, 1.5, 2.5}, 1.5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			almost(t, Mean(tc.in), tc.want, 1e-12)
		})
	}
}

func TestSum(t *testing.T) {
	almost(t, Sum(nil), 0, 0)
	almost(t, Sum([]float64{1, 2, 3.5}), 6.5, 1e-12)
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5} // unsorted on purpose
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{0.125, 1.5}, // interpolated
	}
	for _, tc := range tests {
		almost(t, Quantile(xs, tc.q), tc.want, 1e-12)
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileEdge(t *testing.T) {
	almost(t, Quantile(nil, 0.5), 0, 0)
	almost(t, Quantile([]float64{7}, 0.99), 7, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q out of range")
		}
	}()
	QuantileSorted([]float64{1, 2}, 1.5)
}

func TestMedian(t *testing.T) {
	almost(t, Median([]float64{1, 2, 3, 4}), 2.5, 1e-12)
	almost(t, Median([]float64{9, 1, 5}), 5, 1e-12)
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ysUp := []float64{2, 4, 6, 8, 10}
	ysDown := []float64{10, 8, 6, 4, 2}
	almost(t, Pearson(xs, ysUp), 1, 1e-12)
	almost(t, Pearson(xs, ysDown), -1, 1e-12)
	// Zero variance and mismatched lengths degrade to 0.
	almost(t, Pearson(xs, []float64{3, 3, 3, 3, 3}), 0, 0)
	almost(t, Pearson(xs, []float64{1, 2}), 0, 0)
	almost(t, Pearson(nil, nil), 0, 0)
}

func TestPearsonUncorrelated(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	if c := Pearson(xs, ys); math.Abs(c) > 0.05 {
		t.Fatalf("independent samples correlated: %g", c)
	}
}

func TestTopShare(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 91}
	almost(t, TopShare(xs, 0.10), 0.91, 1e-12)
	almost(t, TopShare(xs, 1.0), 1, 1e-12)
	almost(t, TopShare(xs, 0), 0, 0)
	almost(t, TopShare(nil, 0.5), 0, 0)
	almost(t, TopShare([]float64{0, 0}, 0.5), 0, 0)
	// frac > 1 is clamped.
	almost(t, TopShare(xs, 2), 1, 1e-12)
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		lo, hi := Quantile(xs, 0), Quantile(xs, 1)
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is symmetric and within [-1, 1].
func TestPearsonBoundsProperty(t *testing.T) {
	f := func(pairs []struct{ A, B int16 }) bool {
		if len(pairs) < 2 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			xs[i], ys[i] = float64(p.A), float64(p.B)
		}
		c1, c2 := Pearson(xs, ys), Pearson(ys, xs)
		return c1 >= -1-1e-9 && c1 <= 1+1e-9 && math.Abs(c1-c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopShare is monotone in frac.
func TestTopShareMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		f1 := float64(a%101) / 100
		f2 := float64(b%101) / 100
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		return TopShare(xs, f1) <= TopShare(xs, f2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
