package replication

import (
	"math"
	"math/rand/v2"
)

// The three evaluators behind Availability, Sweep and Survivors, one per
// kind of strategy; DESIGN.md, "Replication sweeps", has the invariant each
// rests on and why each gives the per-point evaluation's bits.

// never is the removal time of an instance no batch removes.
const never = math.MaxInt32

// sweep is what one evaluation reads and draws with: the removal schedule,
// the current point, and the stream of the user being placed. It lives for
// one call, which keeps the Experiment read-only.
type sweep struct {
	exp *Experiment
	at  []int32 // at[i]: first point at which instance i is down
	k   int32   // current point; instance i is down iff at[i] <= k

	pcg  rand.PCG   // the user's generator: rand.NewPCG(seed, user), or past its cached draws
	rng  *rand.Rand // reads pcg
	seen []int32    // distinct instances drawn for the toot being placed

	cache drawCache // a sampled sweep's; empty for Survivors
	ids   []int32   // the user's cached draws: a window on cache.ids whose cap is the segment
	pos   int       // replay cursor into ids
	j     int       // the user's row in the cache
}

func newSweep(exp *Experiment, at []int32) *sweep {
	sw := &sweep{exp: exp, at: at}
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

// share is the availability (0-100) of avail reachable toots.
func (exp *Experiment) share(avail float64) float64 {
	if exp.totalToots == 0 {
		return 100 // of a world without toots, nothing is lost
	}
	return 100 * avail / exp.totalToots
}

// runFixed evaluates a fixed placement: a user's toots are all reachable
// until the last of home and replicas falls, and none are after. Each
// user's toots are filed once, under the point at which that happens, and
// each point's value is the intact total less what has fallen by then. The
// per-point evaluation summed the same whole numbers in user order; while
// the world holds fewer than 2^53 toots every partial sum of either is an
// exact float64 integer, so the order cannot change a bit.
func (exp *Experiment) runFixed(s fixedPlacement, at []int32, points int) []float64 {
	lost := make([]float64, points)
	for _, u := range exp.tooting {
		last := at[exp.home[u]]
		for _, r := range s.replicas(exp, u) {
			last = max(last, at[r])
		}
		if last < int32(points) {
			lost[last] += exp.toots[u]
		}
	}
	avail := exp.totalToots
	for k, l := range lost {
		avail -= l
		lost[k] = exp.share(avail)
	}
	return lost
}

// allDown is the closed-form probability that n distinct uniformly drawn
// instances (all m of them, when there are fewer) are among the d down.
func allDown(d, m, n int) float64 {
	p := 1.0
	for i := 0; i < min(n, m); i++ {
		p *= float64(d-i) / float64(m-i)
		if p <= 0 {
			return 0
		}
	}
	return p
}

// runExact evaluates RandRep's closed form. The survival factor is the same
// for every displaced user, so it is computed once per point. The sum is
// not a whole number, so each point's runs in user order, as the per-point
// evaluation added it, over dense rows; four points share one pass, so
// their four chains of additions overlap instead of each waiting on its
// last add.
func (exp *Experiment) runExact(n int, at []int32, points int) []float64 {
	width := (points + 3) &^ 3  // the last pass's extra points are dropped
	falls := make([]int, width) // instances whose removal time is each point
	for _, t := range at {
		if t < int32(points) {
			falls[t]++
		}
	}
	q := make([]float64, width)
	down := 0
	for k := range q {
		down += falls[k]
		q[k] = 1 - allDown(down, len(at), n)
	}
	homeAt := make([]int32, len(exp.tooting))
	for j, u := range exp.tooting {
		homeAt[j] = at[exp.home[u]]
	}
	for k := 0; k < width; k += 4 {
		var a0, a1, a2, a3 float64
		for j, t := range exp.tootsOf {
			h := homeAt[j] - int32(k) // h > i: the home is up at point k+i
			a0 += kept(t, h > 0, q[k])
			a1 += kept(t, h > 1, q[k+1])
			a2 += kept(t, h > 2, q[k+2])
			a3 += kept(t, h > 3, q[k+3])
		}
		q[k], q[k+1], q[k+2], q[k+3] = exp.share(a0), exp.share(a1), exp.share(a2), exp.share(a3)
	}
	return q[:points]
}

// kept is a user's expected reachable toots under the closed form: all t
// while the home is up, else t times the survival factor q. The explicit
// conversion rounds the product before it is added, so no architecture
// fuses the two into one instruction.
func kept(t float64, homeUp bool, q float64) float64 {
	m := q
	if homeUp {
		m = 1
	}
	return float64(t * m)
}

// runSampled evaluates a sampled strategy. A displaced user's estimate
// holds until the first replica that saved a sample falls, so it keeps
// every user's contribution and re-evaluates it only then, replaying the
// user's cached draws; contributions are summed in user order at every
// point, the order the per-point evaluation added in, so each value has
// the same bits.
func (exp *Experiment) runSampled(s sampler, at []int32, points int) []float64 {
	seed, samples, n := s.sampling()
	out := make([]float64, points)
	sw := newSweep(exp, at)
	sw.cache = exp.newDrawCache(seed, max(samples*min(n, len(at)), 0))
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
					contrib[j], validUntil[j] = sw.monteCarlo(s, u, j, samples)
				}
			}
			avail += contrib[j]
		}
		out[k] = exp.share(avail)
	}
	return out
}

// monteCarlo estimates how many of a displaced user's toots survive by
// placing samples of them (at most one per toot) from the user's stream,
// read from its start. The estimate holds until the first replica that
// saved a sample falls. j is the user's row in a sampled sweep's cache.
func (sw *sweep) monteCarlo(s sampler, u int32, j, samples int) (float64, int32) {
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

// drawCache keeps, for each user who tooted, the instance ids the user's
// stream has produced so far in a sampled sweep, and the generator just
// past them. A re-evaluation replays the ids and draws only past their
// end, so it reads the same stream as one that starts from the seed. The
// ids live in one arena of fixed-size segments, one per user; a stream
// that outgrows its segment draws its tail afresh from the saved
// generator at every re-evaluation.
type drawCache struct {
	ids   []int32    // user j's segment is ids[j*span:][:span], n[j] of it filled
	n     []int32    // ids cached per user
	saved []rand.PCG // per user, the generator just past its cached ids
	span  int
}

// newDrawCache gives every tooting user an empty segment of span ids and
// the stream rand.NewPCG(seed, user) at its start.
func (exp *Experiment) newDrawCache(seed uint64, span int) drawCache {
	c := drawCache{
		ids:   make([]int32, len(exp.tooting)*span),
		n:     make([]int32, len(exp.tooting)),
		saved: make([]rand.PCG, len(exp.tooting)),
		span:  span,
	}
	for j, u := range exp.tooting {
		c.saved[j].Seed(seed, uint64(u))
	}
	return c
}

// rewind puts user u's stream back at its start: the cached ids of the
// user's segment (row j) first, then the generator where they end. Without
// a cache the stream is the freshly seeded generator.
func (sw *sweep) rewind(s sampler, u int32, j int) {
	c := &sw.cache
	if c.saved == nil {
		seed, _, _ := s.sampling()
		sw.pcg.Seed(seed, uint64(u))
		return
	}
	off := j * c.span
	sw.j, sw.pcg, sw.pos = j, c.saved[j], 0
	sw.ids = c.ids[off : off+int(c.n[j]) : off+c.span]
}

// replay returns the stream's next id if it is cached.
func (sw *sweep) replay() (int32, bool) {
	if sw.pos < len(sw.ids) {
		sw.pos++
		return sw.ids[sw.pos-1], true
	}
	return 0, false
}

// keep files a freshly drawn id, and the generator just past it, while the
// user's segment has room.
func (sw *sweep) keep(id int32) int32 {
	if len(sw.ids) < cap(sw.ids) {
		sw.ids = append(sw.ids, id)
		sw.pos++
		sw.cache.n[sw.j]++
		sw.cache.saved[sw.j] = sw.pcg
	}
	return id
}

// held reports whether a fixed placement has a replica up at the current
// point.
func (sw *sweep) held(replicas []int32) bool {
	for _, r := range replicas {
		if sw.at[r] > sw.k {
			return true
		}
	}
	return false
}

// Availability returns the percentage (0-100) of toots still reachable when
// the instances marked in down are offline.
func (exp *Experiment) Availability(s Strategy, down []bool) float64 {
	return s.series(exp, exp.maskTimes(down), 1)[0]
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
	return s.series(exp, at, len(batches)+1)
}
