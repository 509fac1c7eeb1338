package replication

// The evaluation the incremental sweep replaced, kept as the oracle the
// sweep is held bit-equal to: every point re-evaluates every user against a
// []bool mask, each user's draws come from a fresh rand.New(rand.NewPCG),
// each sample's distinct draws are a map, the weighted search is
// sort.SearchFloat64s and the closed form is computed per user. It reads
// the world for follower instances, not the Experiment's flat rows.
//
// Two places differ from the code as it stood, both where that code did not
// return: RandRep's draw loop and closed form clamp N to the instance count
// (the loop spun forever and the product was 0/0 with every instance down).

import (
	"math/rand/v2"
	"sort"
)

func refSweep(exp *Experiment, s Strategy, batches [][]int32) []float64 {
	down := make([]bool, len(exp.w.Instances))
	out := []float64{refAvailability(exp, s, down)}
	for _, batch := range batches {
		for _, id := range batch {
			down[id] = true
		}
		out = append(out, refAvailability(exp, s, down))
	}
	return out
}

func refAvailability(exp *Experiment, s Strategy, down []bool) float64 {
	if exp.totalToots == 0 {
		return 100
	}
	var avail float64
	for u := range exp.toots {
		if exp.toots[u] == 0 {
			continue
		}
		avail += refAvailable(exp, s, int32(u), down)
	}
	return 100 * avail / exp.totalToots
}

// refAvailable is the number of u's toots reachable under the mask.
func refAvailable(exp *Experiment, s Strategy, u int32, down []bool) float64 {
	toots := exp.toots[u]
	if !down[exp.home[u]] {
		return toots
	}
	anyUp := func(insts []int32) float64 {
		for _, inst := range insts {
			if !down[inst] {
				return toots
			}
		}
		return 0
	}
	switch s := s.(type) {
	case NoRep:
		return 0
	case SubRep:
		var insts []int32
		for _, f := range exp.w.Social.In(u) {
			insts = append(insts, exp.w.Users[f].Instance)
		}
		return anyUp(insts)
	case DHTRep:
		return anyUp(s.placed[u])
	case RandRep:
		m := len(down)
		if s.Exact {
			d := 0
			for _, isDown := range down {
				if isDown {
					d++
				}
			}
			p := 1.0
			for i := 0; i < min(s.N, m); i++ {
				p *= float64(d-i) / float64(m-i)
				if p <= 0 {
					p = 0
					break
				}
			}
			return toots * (1 - p)
		}
		samples := s.Samples
		if samples <= 0 {
			samples = 16
		}
		r := rand.New(rand.NewPCG(s.Seed, uint64(u)))
		return refMonteCarlo(toots, samples, func() bool { return refPlaceUniform(r, s.N, down) })
	case WeightedRep:
		r := rand.New(rand.NewPCG(s.Seed, uint64(u)))
		return refMonteCarlo(toots, s.Samples, func() bool { return refPlaceWeighted(r, s, down) })
	}
	panic("replication: no reference for " + s.Name())
}

func refMonteCarlo(toots float64, samples int, placeAlive func() bool) float64 {
	samples = min(samples, int(toots))
	if samples == 0 {
		return 0
	}
	surviving := 0
	for k := 0; k < samples; k++ {
		if placeAlive() {
			surviving++
		}
	}
	return toots * float64(surviving) / float64(samples)
}

// refPlaceUniform places one toot on n distinct uniform instances, in draw
// order, and reports whether one is up; it stops drawing at the first.
func refPlaceUniform(r *rand.Rand, n int, down []bool) bool {
	m := len(down)
	seen := make(map[int]struct{}, n)
	for i := 0; i < min(n, m); i++ {
		var inst int
		for {
			inst = r.IntN(m)
			if _, dup := seen[inst]; !dup {
				break
			}
		}
		seen[inst] = struct{}{}
		if !down[inst] {
			return true
		}
	}
	return false
}

func refPlaceWeighted(r *rand.Rand, s WeightedRep, down []bool) bool {
	total := s.cum[len(s.cum)-1]
	seen := make(map[int]struct{}, s.N)
	for len(seen) < s.N {
		inst := -1
		for attempt := 0; attempt < 64; attempt++ {
			x := r.Float64() * total
			i := sort.SearchFloat64s(s.cum, x)
			if i >= len(s.cum) {
				i = len(s.cum) - 1
			}
			if _, dup := seen[i]; !dup {
				inst = i
				break
			}
		}
		if inst < 0 {
			return false // weight mass exhausted by duplicates
		}
		seen[inst] = struct{}{}
		if !down[inst] {
			return true
		}
	}
	return false
}

// refSurvives is the per-user survival signal: the home, a fixed
// placement's replicas, or the first toot placed from the user's stream.
func refSurvives(exp *Experiment, s Strategy, u int32, down []bool) bool {
	if !down[exp.home[u]] {
		return true
	}
	if exp.toots[u] == 0 {
		return false
	}
	switch s := s.(type) {
	case RandRep:
		return refPlaceUniform(rand.New(rand.NewPCG(s.Seed, uint64(u))), s.N, down)
	case WeightedRep:
		return refPlaceWeighted(rand.New(rand.NewPCG(s.Seed, uint64(u))), s, down)
	}
	return refAvailable(exp, s, u, down) > 0
}

// replaySampled is runSampled as it was before the per-sample memo: a
// re-evaluation rewinds the user's stream and re-places every sample,
// replaying the cached draws. It is the baseline BenchmarkSweep measures
// the memo against.
func (exp *Experiment) replaySampled(s sampler, at []int32, points int) []float64 {
	seed, samples, n := s.sampling()
	out := make([]float64, points)
	sw := newSweep(exp, at)
	sw.cache = exp.newDrawCache(seed, max(samples*min(n, len(at)), 0))
	contrib := make([]float64, len(exp.tooting))
	validUntil := make([]int32, len(exp.tooting))
	for k := range out {
		sw.k = int32(k)
		var avail float64
		for j, u := range exp.tooting {
			if validUntil[j] <= sw.k {
				if t := at[exp.home[u]]; t > sw.k {
					contrib[j], validUntil[j] = exp.toots[u], t
				} else {
					contrib[j], validUntil[j] = sw.replayMonteCarlo(s, u, j, samples)
				}
			}
			avail += contrib[j]
		}
		out[k] = exp.share(avail)
	}
	return out
}

func (sw *sweep) replayMonteCarlo(s sampler, u int32, j, samples int) (float64, int32) {
	toots := sw.exp.toots[u]
	samples = min(samples, int(toots))
	if samples == 0 {
		return 0, never
	}
	sw.rewind(s, u, j)
	surviving, valid := 0, int32(never)
	for range samples {
		if until, ok := s.place(sw); ok {
			surviving++
			valid = min(valid, until)
		}
	}
	return toots * float64(surviving) / float64(samples), valid
}
