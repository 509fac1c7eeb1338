package gen

import (
	"math"
	"math/rand/v2"

	"repro/internal/stats"
)

// This file provides the deterministic sampling primitives of the generative
// model: discrete power laws (degree and toot-count distributions), weighted
// categorical choice (country/AS/CA assignment) and Zipf-Mandelbrot size
// ladders (users per instance).

// powerLaw samples integers k in [1, max] with P(k) ∝ k^-alpha; its table
// is the normalised CDF, cum[i] = P(K <= i+1).
type powerLaw struct {
	*stats.CumSampler
	cum []float64
}

// newPowerLaw builds a sampler. alpha must be > 0 and max ≥ 1.
func newPowerLaw(alpha float64, max int) *powerLaw {
	if alpha <= 0 || max < 1 {
		panic("gen: invalid power-law parameters")
	}
	cum := make([]float64, max)
	total := 0.0
	for k := 1; k <= max; k++ {
		total += math.Pow(float64(k), -alpha)
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &powerLaw{stats.NewCumSampler(cum), cum}
}

// mean returns the analytic mean of the distribution.
func (p *powerLaw) mean() float64 {
	m := 0.0
	prev := 0.0
	for i, c := range p.cum {
		m += float64(i+1) * (c - prev)
		prev = c
	}
	return m
}

// newWeighted builds a sampler of indices with probability proportional to
// the given non-negative weights. At least one weight must be positive.
func newWeighted(ws []float64) *stats.CumSampler {
	cum := make([]float64, len(ws))
	total := 0.0
	for i, w := range ws {
		if w < 0 {
			panic("gen: negative weight")
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("gen: all-zero weights")
	}
	for i := range cum {
		cum[i] /= total
	}
	return stats.NewCumSampler(cum)
}

// zipfMandelbrot returns n sizes proportional to (rank+q)^-s, rank = 1..n,
// scaled so they sum to total and every size is at least 1 (requires
// total ≥ n).
func zipfMandelbrot(n int, s, q float64, total int) []int {
	if n <= 0 {
		return nil
	}
	if total < n {
		total = n
	}
	raw := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		raw[i] = math.Pow(float64(i+1)+q, -s)
		sum += raw[i]
	}
	sizes := make([]int, n)
	assigned := 0
	for i := 0; i < n; i++ {
		v := int(math.Floor(raw[i] / sum * float64(total)))
		if v < 1 {
			v = 1
		}
		sizes[i] = v
		assigned += v
	}
	// Distribute the remainder (positive or negative) over the head so the
	// sizes sum exactly to total while every entry stays ≥ 1.
	i := 0
	for assigned < total {
		sizes[i%n]++
		assigned++
		i++
	}
	for assigned > total {
		j := i % n
		if sizes[j] > 1 {
			sizes[j]--
			assigned--
		}
		i++
	}
	return sizes
}

// clamp limits v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// expSlots draws an exponential duration with the given mean, at least min.
func expSlots(r *rand.Rand, mean float64, min int) int {
	d := int(r.ExpFloat64() * mean)
	if d < min {
		d = min
	}
	return d
}

// subSeed derives an independent deterministic stream for a generation
// stage. SplitMix64 over (seed, stage).
func subSeed(seed uint64, stage uint64) *rand.Rand {
	z := seed + stage*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewPCG(z, z^0xda3e39cb94b95bdb))
}
