package stats

import (
	"math/rand"
	"testing"
	"time"
)

func TestLatencyBucketMonotone(t *testing.T) {
	// Bucket index must be non-decreasing in the value, and the upper
	// bound must bracket every value mapped into the bucket.
	vals := []int64{0, 1, 2, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<20 + 7, 1 << 40, 1<<62 + 12345}
	prev := -1
	for _, v := range vals {
		b := latencyBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d)=%d below previous %d", v, b, prev)
		}
		prev = b
		hi := latencyBucketHigh(b)
		if v > hi {
			t.Fatalf("value %d above its bucket upper bound %d", v, hi)
		}
		// Relative bucketing error below 1%.
		if v >= latencySub && float64(hi-v) > 0.01*float64(v) {
			t.Fatalf("bucket width too coarse at %d: high %d", v, hi)
		}
	}
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	var h LatencyHistogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read as zero")
	}
	// 1..10000 microseconds, shuffled: quantiles are known exactly.
	r := rand.New(rand.NewSource(1))
	us := r.Perm(10000)
	for _, v := range us {
		h.Record(time.Duration(v+1) * time.Microsecond)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 10000*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Microsecond},
		{0.5, 5000 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
		{0.999, 9990 * time.Microsecond},
		{1, 10000 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		err := float64(got-tc.want) / float64(tc.want)
		if err < 0 {
			err = -err
		}
		if err > 0.01 {
			t.Fatalf("q%.3f = %v, want %v within 1%%", tc.q, got, tc.want)
		}
	}
	if m := h.Mean(); m < 4900*time.Microsecond || m > 5100*time.Microsecond {
		t.Fatalf("mean = %v", m)
	}
}

func TestLatencyHistogramMerge(t *testing.T) {
	var a, b, whole LatencyHistogram
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		d := time.Duration(r.Int63n(int64(time.Second)))
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	var empty LatencyHistogram
	a.Merge(&empty) // merging empty is a no-op
	if a.Count() != whole.Count() || a.Max() != whole.Max() || a.Mean() != whole.Mean() {
		t.Fatalf("merge mismatch: count %d/%d max %v/%v",
			a.Count(), whole.Count(), a.Max(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q%g: merged %v != whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestLatencyHistogramNegativeClamp(t *testing.T) {
	var h LatencyHistogram
	h.Record(-time.Second)
	if h.Count() != 1 || h.Max() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative duration must clamp to zero: %v", h.Max())
	}
}
