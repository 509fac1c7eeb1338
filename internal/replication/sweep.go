package replication

import (
	"math"
	"math/rand/v2"
)

// The one evaluator behind Availability, Sweep and Survivors; DESIGN.md,
// "Replication sweeps", has the invariant it rests on.

// never is the removal time of an instance no batch removes.
const never = math.MaxInt32

// sweep is the state of one pass over a removal schedule; a single mask is
// the schedule with one point. It lives for one call, which keeps the
// Experiment read-only, and serves one strategy.
type sweep struct {
	exp *Experiment
	at  []int32 // at[i]: first point at which instance i is down
	k   int32   // current point; instance i is down iff at[i] <= k

	pcg  rand.PCG   // reseeded per user: the stream of rand.NewPCG(seed, user)
	rng  *rand.Rand // reads pcg
	seen []int      // distinct instances drawn for the toot being placed

	missAt int32   // point miss was computed for
	miss   float64 // allDown's result at that point
}

func newSweep(exp *Experiment, at []int32) *sweep {
	sw := &sweep{exp: exp, at: at, missAt: -1}
	sw.rng = rand.New(&sw.pcg)
	return sw
}

// maskTimes is the one-point schedule of a down mask.
func (exp *Experiment) maskTimes(down []bool) []int32 {
	if len(down) != len(exp.w.Instances) {
		panic("replication: down mask length mismatch")
	}
	at := make([]int32, len(down))
	for i, d := range down {
		if !d {
			at[i] = never
		}
	}
	return at
}

// held evaluates a fixed placement: all of u's toots while a replica is up,
// valid until the first one found up falls.
func (sw *sweep) held(u int32, replicas []int32) (float64, int32) {
	for _, inst := range replicas {
		if t := sw.at[inst]; t > sw.k {
			return sw.exp.toots[u], t
		}
	}
	return 0, never
}

// allDown is the closed-form probability that n distinct uniformly drawn
// instances (all of them, when there are fewer) are down at the current
// point. It is the same for every user, so it is computed once per point.
func (sw *sweep) allDown(n int) float64 {
	if sw.missAt == sw.k {
		return sw.miss
	}
	d, m := 0, len(sw.at)
	for _, t := range sw.at {
		if t <= sw.k {
			d++
		}
	}
	p := 1.0
	for i := 0; i < min(n, m); i++ {
		p *= float64(d-i) / float64(m-i)
		if p <= 0 {
			p = 0
			break
		}
	}
	sw.missAt, sw.miss = sw.k, p
	return p
}

// monteCarlo estimates how many of a displaced user's toots survive by
// placing samples of them (at most one per toot) with place, which reads
// the user's own stream from its start. The estimate holds until the first
// replica that saved a sample falls.
func (sw *sweep) monteCarlo(u int32, seed uint64, samples int, place func(*sweep) (int32, bool)) (float64, int32) {
	toots := sw.exp.toots[u]
	samples = min(samples, int(toots))
	if samples == 0 {
		return 0, never
	}
	sw.pcg.Seed(seed, uint64(u))
	surviving, valid := 0, int32(never)
	for range samples {
		if until, ok := place(sw); ok {
			surviving++
			valid = min(valid, until)
		}
	}
	return toots * float64(surviving) / float64(samples), valid
}

// run returns s's availability (0-100) at points 0..points-1 of the
// schedule at. contrib is summed in user order at every point, the order
// the per-point full evaluation added in, so each value has the same bits.
func (exp *Experiment) run(s Strategy, at []int32, points int) []float64 {
	out := make([]float64, points)
	sw := newSweep(exp, at)
	contrib := make([]float64, len(exp.tooting))
	validUntil := make([]int32, len(exp.tooting)) // zero: point 0 evaluates everyone
	for k := range out {
		sw.k = int32(k)
		var avail float64
		for j, u := range exp.tooting {
			if validUntil[j] <= sw.k {
				if t := at[exp.home[u]]; t > sw.k {
					contrib[j], validUntil[j] = exp.toots[u], t
				} else {
					contrib[j], validUntil[j] = s.displaced(sw, u)
				}
			}
			avail += contrib[j]
		}
		out[k] = 100 // of a world without toots, nothing is lost
		if exp.totalToots != 0 {
			out[k] = 100 * avail / exp.totalToots
		}
	}
	return out
}

// Availability returns the percentage (0-100) of toots still reachable when
// the instances marked in down are offline.
func (exp *Experiment) Availability(s Strategy, down []bool) float64 {
	return exp.run(s, exp.maskTimes(down), 1)[0]
}

// Survivors reports, for every user, whether any copy of the user's
// content remains reachable under strategy s with the given down mask —
// the node mask behind the live scenarios' recovered-graph connectivity
// measure (a follow edge survives iff both endpoints do). Users who never
// tooted have nothing replicated anywhere, so they survive iff their home
// instance is up, under every strategy.
func (exp *Experiment) Survivors(s Strategy, down []bool) []bool {
	sw := newSweep(exp, exp.maskTimes(down))
	alive := make([]bool, len(exp.toots))
	for u := range exp.toots {
		alive[u] = !down[exp.home[u]] || exp.toots[u] != 0 && s.survives(sw, int32(u))
	}
	return alive
}

// Sweep removes the given instance batches cumulatively (batch k is removed
// before measuring point k+1) and returns the availability series,
// starting with the intact system. This drives Figs 15 and 16: batches are
// single instances or whole ASes, ranked by users/toots/connections.
func (exp *Experiment) Sweep(s Strategy, batches [][]int32) []float64 {
	at := make([]int32, len(exp.w.Instances))
	for i := range at {
		at[i] = never
	}
	for k, batch := range batches {
		for _, id := range batch {
			at[id] = min(at[id], int32(k+1))
		}
	}
	return exp.run(s, at, len(batches)+1)
}
