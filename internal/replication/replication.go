// Package replication implements the content-federation experiments of
// §5.2: how many toots survive when instances or whole ASes fail, under
// three placement strategies — no replication, subscription-based
// replication (replicas on every follower's instance, assuming a global
// index such as a DHT), and random replication onto n instances.
package replication

import (
	"slices"

	"repro/internal/dataset"
)

// Strategy selects a toot-placement policy. Every policy keeps a user's
// toots on the home instance, where all of them are reachable while it is
// up; a Strategy says what is left once it is down. Its methods are asked
// only about users who tooted and whose home is down at the current point of
// the sweep (sweep.go) they are handed.
type Strategy interface {
	// displaced returns how many of the user's toots are still reachable,
	// and the first later point at which that answer can differ: the
	// smallest removal time among the instances the evaluation saw up
	// (never, if nothing it saw can still fall).
	displaced(sw *sweep, user int32) (value float64, validUntil int32)
	// survives reports whether ANY copy of the user's content remains
	// reachable — the per-user signal behind the recovered-graph
	// connectivity measure of the live scenarios. For randomised strategies
	// the replica placement is the deterministic pseudo-random draw seeded
	// by (Seed, user), so the answer never changes between calls.
	survives(sw *sweep, user int32) bool
	// Name labels the strategy in reports.
	Name() string
}

// NoRep keeps every toot only on its author's home instance.
type NoRep struct{}

// Name implements Strategy.
func (NoRep) Name() string { return "No-Rep" }

func (NoRep) displaced(*sweep, int32) (float64, int32) { return 0, never }

func (NoRep) survives(*sweep, int32) bool { return false }

// SubRep replicates every toot of a user onto the instances hosting the
// user's followers (Mastodon's federation already pushes the content there;
// the experiment assumes it is persisted and globally indexed).
type SubRep struct{}

// Name implements Strategy.
func (SubRep) Name() string { return "S-Rep" }

func (SubRep) displaced(sw *sweep, u int32) (float64, int32) {
	return sw.held(u, sw.exp.followerInsts(u))
}

func (SubRep) survives(sw *sweep, u int32) bool {
	value, _ := sw.held(u, sw.exp.followerInsts(u))
	return value > 0
}

// RandRep replicates each toot onto N uniformly random instances (distinct
// from each other). With Exact set it computes the expected availability in
// closed form; otherwise it Monte-Carlo samples Samples toots per user
// (bounded by the user's toot count) with the given seed.
type RandRep struct {
	N       int
	Exact   bool
	Samples int
	Seed    uint64
}

// Name implements Strategy.
func (s RandRep) Name() string {
	return "R-Rep(n=" + itoa(s.N) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// displaced: a toot survives iff at least one of its replicas is up.
func (s RandRep) displaced(sw *sweep, u int32) (float64, int32) {
	if s.Exact {
		// The closed form reads the down count, which any later point may
		// change, not particular instances.
		return sw.exp.toots[u] * (1 - sw.allDown(s.N)), sw.k + 1
	}
	samples := s.Samples
	if samples <= 0 {
		samples = 16
	}
	return sw.monteCarlo(u, s.Seed, samples, s.place)
}

// survives treats the first N distinct draws of the user's deterministic
// stream as THE replica placement: the user's content remains reachable iff
// the home or any of those N instances is up. That is the one-sample
// estimate being non-zero.
func (s RandRep) survives(sw *sweep, u int32) bool {
	value, _ := sw.monteCarlo(u, s.Seed, 1, s.place)
	return value > 0
}

// place draws one toot's replicas from the stream sw.rng is at — N distinct
// uniform instances, or all of them when the world has fewer — and stops at
// the first that is up, returning its removal time.
func (s RandRep) place(sw *sweep) (int32, bool) {
	m := len(sw.at)
	n := min(s.N, m)
	sw.seen = sw.seen[:0]
	for len(sw.seen) < n {
		inst := sw.rng.IntN(m)
		if slices.Contains(sw.seen, inst) {
			continue
		}
		sw.seen = append(sw.seen, inst)
		if t := sw.at[inst]; t > sw.k {
			return t, true
		}
	}
	return never, false
}

// WeightedRep replicates each toot onto N instances drawn without
// replacement with probability proportional to a weight vector (e.g.
// instance capacity ∝ hosted users — the §5.2 closing remark that
// replication should be "weighted based on the resources available at the
// instance"). It is evaluated by Monte-Carlo with Samples draws per user.
// Build with NewWeightedRep.
type WeightedRep struct {
	N       int
	Samples int
	Seed    uint64
	label   string
	cum     []float64 // cumulative weights
	// guide[b] is the search result for the lower edge of the b-th of
	// len(cum) equal slices of [0, total]; perUnit maps a draw to its slice.
	guide   []int32
	perUnit float64
}

// NewWeightedRep builds the strategy. weights must have one non-negative
// entry per instance with a positive total; label names the weighting in
// reports (e.g. "capacity").
func NewWeightedRep(n int, weights []float64, samples int, seed uint64, label string) WeightedRep {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("replication: negative weight")
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("replication: all-zero weights")
	}
	if samples <= 0 {
		samples = 16
	}
	parts := float64(len(cum))
	guide := make([]int32, len(cum)+1)
	i := 0
	for b := range guide {
		edge := float64(b) * total / parts
		for i < len(cum) && cum[i] < edge {
			i++
		}
		guide[b] = int32(i)
	}
	return WeightedRep{N: n, Samples: samples, Seed: seed, label: label,
		cum: cum, guide: guide, perUnit: parts / total}
}

// Name implements Strategy.
func (s WeightedRep) Name() string {
	l := s.label
	if l == "" {
		l = "weighted"
	}
	return "W-Rep(" + l + ",n=" + itoa(s.N) + ")"
}

// search returns sort.SearchFloat64s(s.cum, x), the smallest i with
// cum[i] >= x. The guide table only picks where to start; the two walks
// settle on the exact index however the slice index rounded, and the
// expected walk is one step because a draw lands in each slice equally
// often and the slices hold one entry on average.
func (s WeightedRep) search(x float64) int {
	b := max(0, min(int(x*s.perUnit), len(s.guide)-1))
	i := int(s.guide[b])
	for i > 0 && s.cum[i-1] >= x {
		i--
	}
	for i < len(s.cum) && s.cum[i] < x {
		i++
	}
	return i
}

func (s WeightedRep) displaced(sw *sweep, u int32) (float64, int32) {
	return sw.monteCarlo(u, s.Seed, s.Samples, s.place)
}

// survives mirrors RandRep.survives with weighted draws: the first N
// distinct weighted picks of the user's deterministic stream are the
// placement.
func (s WeightedRep) survives(sw *sweep, u int32) bool {
	value, _ := sw.monteCarlo(u, s.Seed, 1, s.place)
	return value > 0
}

// place is RandRep.place with weighted draws. A draw that keeps hitting
// instances already picked gives up after 64 attempts: the weight mass is
// exhausted by duplicates and the toot has fewer than N replicas.
func (s WeightedRep) place(sw *sweep) (int32, bool) {
	if len(s.cum) != len(sw.at) {
		panic("replication: WeightedRep weights length mismatch")
	}
	total := s.cum[len(s.cum)-1]
	sw.seen = sw.seen[:0]
	for len(sw.seen) < s.N {
		inst := -1
		for attempt := 0; attempt < 64; attempt++ {
			i := min(s.search(sw.rng.Float64()*total), len(s.cum)-1)
			if !slices.Contains(sw.seen, i) {
				inst = i
				break
			}
		}
		if inst < 0 {
			break
		}
		sw.seen = append(sw.seen, inst)
		if t := sw.at[inst]; t > sw.k {
			return t, true
		}
	}
	return never, false
}

// Experiment precomputes the placement state for a world: every user's home
// instance, toot weight, and the distinct instances hosting their followers.
// It is read-only after New, so any number of goroutines may sweep it.
type Experiment struct {
	w          *dataset.World
	home       []int32
	toots      []float64
	tooting    []int32 // users with toots, ascending: the only ones a sweep evaluates
	totalToots float64

	// Follower instances in CSR form: user u's are folInst[folOff[u]:folOff[u+1]].
	folOff  []int64
	folInst []int32
}

// New builds an Experiment from a world.
func New(w *dataset.World) *Experiment {
	n := len(w.Users)
	exp := &Experiment{
		w:      w,
		home:   make([]int32, n),
		toots:  make([]float64, n),
		folOff: make([]int64, n+1),
	}
	for i := range w.Users {
		exp.home[i] = w.Users[i].Instance
		exp.toots[i] = float64(w.Users[i].Toots)
		exp.totalToots += exp.toots[i]
		if exp.toots[i] != 0 {
			exp.tooting = append(exp.tooting, int32(i))
		}
	}
	// Follower instances per user, deduplicated by sorting a reusable
	// scratch slice instead of a per-user hash map.
	social := w.Social
	var scratch []int32
	for u := 0; u < n; u++ {
		scratch = scratch[:0]
		for _, f := range social.In(int32(u)) {
			inst := w.Users[f].Instance
			if inst != exp.home[u] {
				scratch = append(scratch, inst)
			}
		}
		slices.Sort(scratch)
		exp.folInst = append(exp.folInst, slices.Compact(scratch)...)
		exp.folOff[u+1] = int64(len(exp.folInst))
	}
	return exp
}

// followerInsts returns the distinct instances, other than the home, that
// host followers of u, ascending. The slice aliases the Experiment.
func (exp *Experiment) followerInsts(u int32) []int32 {
	return exp.folInst[exp.folOff[u]:exp.folOff[u+1]]
}

// ReplicaStats summarises the subscription-replication placement: the
// paper observes 9.7% of toots with no replica and 23% with more than ten.
func (exp *Experiment) ReplicaStats() (noReplicaTootFrac, over10TootFrac float64) {
	var none, many float64
	for u := range exp.toots {
		switch n := exp.folOff[u+1] - exp.folOff[u]; {
		case n == 0:
			none += exp.toots[u]
		case n > 10:
			many += exp.toots[u]
		}
	}
	if exp.totalToots == 0 {
		return 0, 0
	}
	return none / exp.totalToots, many / exp.totalToots
}
