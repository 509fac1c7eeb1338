package stats

import "math/rand/v2"

// CumSampler inverts a cumulative-weight table: Index(u) is the smallest i
// with cum[i] >= u·cum[len-1], the index sort.SearchFloat64s finds. Every
// weighted draw of the generator, the Twitter baseline and the weighted
// replication strategy goes through it, so a draw costs one guide-table
// lookup and a bisection of the few entries one bucket spans instead of a
// bisection of the whole table.
//
// The guide table is exact, not approximate. K = len(guide)-1 is a power
// of two, so for u in [0,1) the product u·K is exact and g = int(u·K) puts
// u in [g/K, (g+1)/K), both ends representable. A correctly rounded
// multiplication by total is monotone in u and the search is monotone in
// its target, so the answer for u lies in [Index(g/K), Index((g+1)/K)] =
// [guide[g], guide[g+1]], and guide is filled by the same u·total rule.
// A bucket whose two ends agree holds one answer; guide[g] stores it as
// ^answer, so a draw that lands there reads it with no search. guide[K]
// starts no bucket and is never marked.
type CumSampler struct {
	cum   []float64
	guide []int32
	shift uint // 53 - log2(K): the bucket of a 53-bit draw m is m >> shift
}

// NewCumSampler builds a sampler over cum, which must be non-empty, finite,
// non-negative and non-decreasing. It keeps cum, not a copy.
func NewCumSampler(cum []float64) *CumSampler {
	if len(cum) == 0 {
		panic("stats: empty cumulative table")
	}
	k, shift := 1, uint(53)
	for k < len(cum) {
		k <<= 1
		shift--
	}
	last := len(cum) - 1
	total := cum[last]
	guide := make([]int32, k+1)
	i := 0
	for g := range guide {
		x := float64(g) / float64(k) * total
		for i < last && cum[i] < x {
			i++
		}
		guide[g] = int32(i)
	}
	for g := 0; g < k; g++ { // guide[g+1] is not marked yet
		if guide[g] == guide[g+1] {
			guide[g] = ^guide[g]
		}
	}
	return &CumSampler{cum: cum, guide: guide, shift: shift}
}

// unmark decodes a guide entry: a marked single-answer bucket's index.
func unmark(e int32) int32 {
	if e < 0 {
		return ^e
	}
	return e
}

// Index returns the table index u in [0,1) falls on.
func (s *CumSampler) Index(u float64) int {
	g := int(u * float64(len(s.guide)-1))
	if e := s.guide[g]; e < 0 {
		return int(^e)
	}
	return s.search(g, u)
}

// IndexBits returns Index(float64(b<<11>>11) / (1<<53)), the index of the
// Float64 that rand.Rand makes of the raw draw b. The bucket is the draw's
// top bits, so a draw into a marked bucket does no float arithmetic.
func (s *CumSampler) IndexBits(b uint64) int {
	m := b << 11 >> 11
	g := int(m >> s.shift)
	if e := s.guide[g]; e < 0 {
		return int(^e)
	}
	return s.search(g, float64(m)/(1<<53))
}

// search bisects bucket g's range for u's target.
func (s *CumSampler) search(g int, u float64) int {
	x := u * s.cum[len(s.cum)-1]
	lo, hi := int(s.guide[g]), int(unmark(s.guide[g+1]))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Sample draws one index, consuming one Float64 of r.
func (s *CumSampler) Sample(r *rand.Rand) int { return s.Index(r.Float64()) }
