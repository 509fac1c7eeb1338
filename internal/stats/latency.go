package stats

import (
	"math/bits"
	"time"
)

// LatencyHistogram is an HDR-style log-linear histogram for request
// latencies. Values (nanoseconds) are bucketed with latencySubBits
// significant bits per power-of-two octave, so every recorded value lands
// in a bucket whose width is below 1/128 (≈0.8%) of its magnitude — tail
// quantiles (p99, p999) are read with bounded relative error from a fixed
// ~60KB table, no matter how many samples were recorded.
//
// The zero value is ready to use. A histogram is not safe for concurrent
// use: the load generator gives each worker its own and folds them with
// Merge at the end, which keeps Record at a handful of instructions on the
// measurement path.
type LatencyHistogram struct {
	counts [latencyBuckets]uint64
	count  uint64
	sum    int64
	max    int64
}

const (
	latencySubBits = 7 // 128 sub-buckets per octave: <1% relative error
	latencySub     = 1 << latencySubBits
	// 64-bit values span 64-latencySubBits octaves past the linear region.
	latencyBuckets = (64 - latencySubBits + 1) * latencySub
)

// latencyBucket maps a non-negative value to its bucket index. Values below
// latencySub are bucketed exactly (the linear region); above, the top
// latencySubBits bits after the leading bit select the sub-bucket.
func latencyBucket(v int64) int {
	u := uint64(v)
	if u < latencySub {
		return int(u)
	}
	exp := bits.Len64(u) - latencySubBits - 1 // low bits dropped
	return int(uint64(exp+1)<<latencySubBits | (u>>uint(exp))&(latencySub-1))
}

// latencyBucketHigh returns the largest value mapping to bucket i: quantiles
// report a bucket's upper bound, so a quantile never under-reports by more
// than one sample and over-reports by at most the bucket width (<1%).
func latencyBucketHigh(i int) int64 {
	if i < latencySub {
		return int64(i)
	}
	exp := uint(i>>latencySubBits - 1)
	base := uint64(latencySub|(i&(latencySub-1))) << exp
	return int64(base + (1 << exp) - 1)
}

// Record adds one observation. Negative durations clamp to zero.
func (h *LatencyHistogram) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds n identical observations.
func (h *LatencyHistogram) RecordN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[latencyBucket(v)] += n
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * int64(n)
}

// Merge folds other into h.
func (h *LatencyHistogram) Merge(other *LatencyHistogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Count returns the number of recorded observations.
func (h *LatencyHistogram) Count() uint64 { return h.count }

// Max returns the largest recorded value (0 when empty).
func (h *LatencyHistogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (h *LatencyHistogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket holding the ceil(q·count)-th smallest observation, clamped to the
// recorded max so the exact extreme survives bucketing. Returns 0 when
// empty; panics if q is outside [0, 1].
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := latencyBucketHigh(i)
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}
