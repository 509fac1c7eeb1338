// Package replication implements the content-federation experiments of
// §5.2: how many toots survive when instances or whole ASes fail, under
// three placement strategies — no replication, subscription-based
// replication (replicas on every follower's instance, assuming a global
// index such as a DHT), and random replication onto n instances.
package replication

import (
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// Strategy selects a toot-placement policy.
type Strategy interface {
	// available reports how many of the user's toots survive given the down
	// mask over instances. exp carries the precomputed placement state.
	available(exp *Experiment, user int32, down []bool) float64
	// survives reports whether ANY copy of the user's content remains
	// reachable under the down mask — the per-user signal behind the
	// recovered-graph connectivity measure of the live scenarios. For
	// randomised strategies the replica placement is the deterministic
	// pseudo-random draw seeded by (Seed, user), so the answer never
	// changes between calls.
	survives(exp *Experiment, user int32, down []bool) bool
	// Name labels the strategy in reports.
	Name() string
}

// NoRep keeps every toot only on its author's home instance.
type NoRep struct{}

// Name implements Strategy.
func (NoRep) Name() string { return "No-Rep" }

func (NoRep) available(exp *Experiment, u int32, down []bool) float64 {
	if down[exp.home[u]] {
		return 0
	}
	return exp.toots[u]
}

func (NoRep) survives(exp *Experiment, u int32, down []bool) bool {
	return !down[exp.home[u]]
}

// SubRep replicates every toot of a user onto the instances hosting the
// user's followers (Mastodon's federation already pushes the content there;
// the experiment assumes it is persisted and globally indexed).
type SubRep struct{}

// Name implements Strategy.
func (SubRep) Name() string { return "S-Rep" }

func (SubRep) available(exp *Experiment, u int32, down []bool) float64 {
	if !down[exp.home[u]] {
		return exp.toots[u]
	}
	for _, inst := range exp.followerInsts[u] {
		if !down[inst] {
			return exp.toots[u]
		}
	}
	return 0
}

func (SubRep) survives(exp *Experiment, u int32, down []bool) bool {
	if !down[exp.home[u]] {
		return true
	}
	for _, inst := range exp.followerInsts[u] {
		if !down[inst] {
			return true
		}
	}
	return false
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

func (s RandRep) available(exp *Experiment, u int32, down []bool) float64 {
	if !down[exp.home[u]] {
		return exp.toots[u]
	}
	// Home is down; a toot survives iff at least one replica is up.
	if s.Exact {
		// P(all N replicas down) drawing distinct instances uniformly.
		p := 1.0
		d, m := exp.downCount(down), len(exp.w.Instances)
		for i := 0; i < s.N; i++ {
			p *= float64(d-i) / float64(m-i)
			if p <= 0 {
				p = 0
				break
			}
		}
		return exp.toots[u] * (1 - p)
	}
	r := rand.New(rand.NewPCG(s.Seed, uint64(u)))
	samples := s.Samples
	if samples <= 0 {
		samples = 16
	}
	if t := int(exp.toots[u]); t < samples {
		samples = t
	}
	if samples == 0 {
		return 0
	}
	m := len(exp.w.Instances)
	surviving := 0
	for k := 0; k < samples; k++ {
		alive := false
		seen := make(map[int]struct{}, s.N)
		for i := 0; i < s.N; i++ {
			var inst int
			for {
				inst = r.IntN(m)
				if _, dup := seen[inst]; !dup {
					break
				}
			}
			seen[inst] = struct{}{}
			if !down[inst] {
				alive = true
				break
			}
		}
		if alive {
			surviving++
		}
	}
	return exp.toots[u] * float64(surviving) / float64(samples)
}

// survives treats the first N distinct draws of the user's deterministic
// stream as THE replica placement: the user's content remains reachable iff
// the home or any of those N instances is up.
func (s RandRep) survives(exp *Experiment, u int32, down []bool) bool {
	if !down[exp.home[u]] {
		return true
	}
	r := rand.New(rand.NewPCG(s.Seed, uint64(u)))
	m := len(exp.w.Instances)
	n := s.N
	if n > m {
		n = m
	}
	seen := make(map[int]struct{}, n)
	for i := 0; i < n; i++ {
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
	cum     []float64 // cumulative weights for O(log n) sampling
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
	return WeightedRep{N: n, Samples: samples, Seed: seed, label: label, cum: cum}
}

// Name implements Strategy.
func (s WeightedRep) Name() string {
	l := s.label
	if l == "" {
		l = "weighted"
	}
	return "W-Rep(" + l + ",n=" + itoa(s.N) + ")"
}

func (s WeightedRep) available(exp *Experiment, u int32, down []bool) float64 {
	if !down[exp.home[u]] {
		return exp.toots[u]
	}
	if len(s.cum) != len(down) {
		panic("replication: WeightedRep weights length mismatch")
	}
	r := rand.New(rand.NewPCG(s.Seed, uint64(u)))
	samples := s.Samples
	if t := int(exp.toots[u]); t < samples {
		samples = t
	}
	if samples == 0 {
		return 0
	}
	total := s.cum[len(s.cum)-1]
	surviving := 0
	for k := 0; k < samples; k++ {
		alive := false
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
				break // weight mass exhausted by duplicates
			}
			seen[inst] = struct{}{}
			if !down[inst] {
				alive = true
				break
			}
		}
		if alive {
			surviving++
		}
	}
	return exp.toots[u] * float64(surviving) / float64(samples)
}

// survives mirrors RandRep.survives with weighted draws: the first N
// distinct weighted picks of the user's deterministic stream are the
// placement.
func (s WeightedRep) survives(exp *Experiment, u int32, down []bool) bool {
	if !down[exp.home[u]] {
		return true
	}
	if len(s.cum) != len(down) {
		panic("replication: WeightedRep weights length mismatch")
	}
	r := rand.New(rand.NewPCG(s.Seed, uint64(u)))
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

// Experiment precomputes the placement state for a world: every user's home
// instance, toot weight, and the distinct instances hosting their followers.
type Experiment struct {
	w             *dataset.World
	home          []int32
	toots         []float64
	followerInsts [][]int32
	totalToots    float64

	cachedDown      []bool
	cachedDownCount int
}

// New builds an Experiment from a world.
func New(w *dataset.World) *Experiment {
	n := len(w.Users)
	exp := &Experiment{
		w:             w,
		home:          make([]int32, n),
		toots:         make([]float64, n),
		followerInsts: make([][]int32, n),
	}
	for i := range w.Users {
		exp.home[i] = w.Users[i].Instance
		exp.toots[i] = float64(w.Users[i].Toots)
		exp.totalToots += exp.toots[i]
	}
	// Follower instances per user, deduplicated by sorting a reusable
	// scratch slice instead of a per-user hash map.
	social := w.Social
	var scratch []int32
	for u := 0; u < n; u++ {
		followers := social.In(int32(u))
		if len(followers) == 0 {
			continue
		}
		scratch = scratch[:0]
		for _, f := range followers {
			inst := w.Users[f].Instance
			if inst != exp.home[u] {
				scratch = append(scratch, inst)
			}
		}
		if len(scratch) == 0 {
			continue
		}
		slices.Sort(scratch)
		insts := make([]int32, 0, 4)
		for i, inst := range scratch {
			if i == 0 || inst != scratch[i-1] {
				insts = append(insts, inst)
			}
		}
		exp.followerInsts[u] = insts
	}
	return exp
}

// TotalToots returns the toot mass of the world.
func (exp *Experiment) TotalToots() float64 { return exp.totalToots }

// ReplicaStats summarises the subscription-replication placement: the
// paper observes 9.7% of toots with no replica and 23% with more than ten.
func (exp *Experiment) ReplicaStats() (noReplicaTootFrac, over10TootFrac float64) {
	var none, many float64
	for u := range exp.toots {
		switch n := len(exp.followerInsts[u]); {
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

func (exp *Experiment) downCount(down []bool) int {
	if len(down) > 0 && len(exp.cachedDown) > 0 && &down[0] == &exp.cachedDown[0] {
		return exp.cachedDownCount
	}
	c := 0
	for _, d := range down {
		if d {
			c++
		}
	}
	return c
}

// Availability returns the percentage (0-100) of toots still reachable when
// the instances marked in down are offline.
func (exp *Experiment) Availability(s Strategy, down []bool) float64 {
	if len(down) != len(exp.w.Instances) {
		panic("replication: down mask length mismatch")
	}
	if exp.totalToots == 0 {
		return 100
	}
	exp.cachedDown = down
	exp.cachedDownCount = 0
	for _, d := range down {
		if d {
			exp.cachedDownCount++
		}
	}
	var avail float64
	for u := range exp.toots {
		if exp.toots[u] == 0 {
			continue
		}
		avail += s.available(exp, int32(u), down)
	}
	return 100 * avail / exp.totalToots
}

// Survivors reports, for every user, whether any copy of the user's
// content remains reachable under strategy s with the given down mask —
// the node mask behind the live scenarios' recovered-graph connectivity
// measure (a follow edge survives iff both endpoints do). Users who never
// tooted have nothing replicated anywhere, so they survive iff their home
// instance is up, under every strategy.
func (exp *Experiment) Survivors(s Strategy, down []bool) []bool {
	if len(down) != len(exp.w.Instances) {
		panic("replication: down mask length mismatch")
	}
	alive := make([]bool, len(exp.toots))
	for u := range exp.toots {
		if exp.toots[u] == 0 {
			alive[u] = !down[exp.home[u]]
			continue
		}
		alive[u] = s.survives(exp, int32(u), down)
	}
	return alive
}

// Sweep removes the given instance batches cumulatively (batch k is removed
// before measuring point k+1) and returns the availability series,
// starting with the intact system. This drives Figs 15 and 16: batches are
// single instances or whole ASes, ranked by users/toots/connections.
func (exp *Experiment) Sweep(s Strategy, batches [][]int32) []float64 {
	down := make([]bool, len(exp.w.Instances))
	out := make([]float64, 0, len(batches)+1)
	out = append(out, exp.Availability(s, down))
	for _, batch := range batches {
		for _, id := range batch {
			down[id] = true
		}
		out = append(out, exp.Availability(s, down))
	}
	return out
}
