package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.9, 0.75}, {3, 1}, {100, 1},
	}
	for _, tc := range tests {
		if got := e.At(tc.x); got != tc.want {
			t.Errorf("At(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
	if e.Min() != 1 || e.Max() != 3 {
		t.Fatalf("Min/Max = %g/%g, want 1/3", e.Min(), e.Max())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.Len() != 0 || e.At(5) != 0 || e.Min() != 0 || e.Max() != 0 {
		t.Fatal("empty ECDF should be all zeros")
	}
}

func TestECDFString(t *testing.T) {
	s := NewECDF([]float64{1, 2, 3}).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestNewBox(t *testing.T) {
	b := NewBox([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100})
	if b.N != 10 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("unexpected box %+v", b)
	}
	if b.Median != 5.5 {
		t.Fatalf("median = %g, want 5.5", b.Median)
	}
	if b.Outliers != 1 {
		t.Fatalf("outliers = %d, want 1 (the 100)", b.Outliers)
	}
	empty := NewBox(nil)
	if empty.N != 0 {
		t.Fatal("empty box should have N=0")
	}
}

// Property: At is monotone non-decreasing and in [0,1].
func TestECDFAtMonotoneProperty(t *testing.T) {
	f := func(raw []int16, a, b int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		e := NewECDF(xs)
		x1, x2 := float64(a), float64(b)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		f1, f2 := e.At(x1), e.At(x2)
		return f1 >= 0 && f2 <= 1 && f1 <= f2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: At(Max) == 1 for non-empty samples.
func TestECDFAtMaxProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		e := NewECDF(xs)
		return math.Abs(e.At(e.Max())-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
