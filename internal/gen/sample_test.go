package gen

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerLawBounds(t *testing.T) {
	law := newPowerLaw(1.9, 100)
	r := subSeed(42, 0)
	for i := 0; i < 10000; i++ {
		k := law.Sample(r) + 1
		if k < 1 || k > 100 {
			t.Fatalf("sample %d out of [1,100]", k)
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	law := newPowerLaw(2.0, 1000)
	r := subSeed(7, 0)
	ones := 0
	n := 20000
	for i := 0; i < n; i++ {
		if law.Sample(r) == 0 {
			ones++
		}
	}
	// P(1) = 1/ζ-ish ≈ 0.61 for alpha=2 over [1,1000].
	frac := float64(ones) / float64(n)
	if frac < 0.55 || frac > 0.68 {
		t.Fatalf("P(k=1) = %.3f, want ≈0.61", frac)
	}
}

func TestPowerLawMean(t *testing.T) {
	// Mean must decrease as alpha grows.
	m1 := newPowerLaw(1.5, 10000).mean()
	m2 := newPowerLaw(2.0, 10000).mean()
	m3 := newPowerLaw(2.5, 10000).mean()
	if !(m1 > m2 && m2 > m3) {
		t.Fatalf("means not monotone: %g %g %g", m1, m2, m3)
	}
	// And match an empirical mean.
	law := newPowerLaw(1.9, 1000)
	r := subSeed(3, 0)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += float64(law.Sample(r) + 1)
	}
	emp := sum / float64(n)
	if math.Abs(emp-law.mean()) > 0.3*law.mean() {
		t.Fatalf("empirical mean %.2f vs analytic %.2f", emp, law.mean())
	}
}

func TestPowerLawPanics(t *testing.T) {
	for _, tc := range []struct {
		a float64
		m int
	}{{0, 10}, {-1, 10}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for alpha=%g max=%d", tc.a, tc.m)
				}
			}()
			newPowerLaw(tc.a, tc.m)
		}()
	}
}

func TestWeighted(t *testing.T) {
	w := newWeighted([]float64{1, 0, 3})
	r := subSeed(11, 0)
	counts := [3]int{}
	n := 40000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	frac := float64(counts[2]) / float64(n)
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("index 2 sampled %.3f, want ≈0.75", frac)
	}
}

func TestWeightedPanics(t *testing.T) {
	for _, ws := range [][]float64{{}, {0, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", ws)
				}
			}()
			newWeighted(ws)
		}()
	}
}

func TestZipfMandelbrot(t *testing.T) {
	sizes := zipfMandelbrot(100, 1.7, 3, 10000)
	total := 0
	for i, s := range sizes {
		if s < 1 {
			t.Fatalf("size[%d] = %d < 1", i, s)
		}
		if i > 0 && s > sizes[i-1] {
			t.Fatalf("sizes not non-increasing at %d: %d > %d", i, s, sizes[i-1])
		}
		total += s
	}
	if total != 10000 {
		t.Fatalf("total = %d, want 10000", total)
	}
	// Head dominance.
	if sizes[0] < 500 {
		t.Fatalf("head size %d too small for a heavy tail", sizes[0])
	}
}

func TestZipfMandelbrotEdge(t *testing.T) {
	if zipfMandelbrot(0, 1.5, 1, 100) != nil {
		t.Fatal("n=0 should return nil")
	}
	// total < n is lifted to n so everyone gets at least 1.
	sizes := zipfMandelbrot(10, 1.5, 1, 3)
	total := 0
	for _, s := range sizes {
		if s < 1 {
			t.Fatal("min size violated")
		}
		total += s
	}
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
}

// Property: zipfMandelbrot always sums to max(total, n) with all sizes ≥ 1.
func TestZipfMandelbrotProperty(t *testing.T) {
	f := func(nRaw, totRaw uint16, sRaw, qRaw uint8) bool {
		n := int(nRaw%200) + 1
		total := int(totRaw)
		s := 1.0 + float64(sRaw%20)/10
		q := float64(qRaw % 10)
		sizes := zipfMandelbrot(n, s, q, total)
		want := total
		if want < n {
			want = n
		}
		sum := 0
		for _, v := range sizes {
			if v < 1 {
				return false
			}
			sum += v
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 0, 10) != 5 || clamp(-1, 0, 10) != 0 || clamp(11, 0, 10) != 10 {
		t.Fatal("clamp broken")
	}
}

func TestExpSlots(t *testing.T) {
	r := subSeed(5, 0)
	for i := 0; i < 1000; i++ {
		if expSlots(r, 10, 3) < 3 {
			t.Fatal("minimum not enforced")
		}
	}
}

func TestSubSeedStreams(t *testing.T) {
	a1 := subSeed(1, 1).Uint64()
	a2 := subSeed(1, 1).Uint64()
	b := subSeed(1, 2).Uint64()
	c := subSeed(2, 1).Uint64()
	if a1 != a2 {
		t.Fatal("subSeed not deterministic")
	}
	if a1 == b || a1 == c {
		t.Fatal("subSeed streams not independent")
	}
}
