package gen

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stats"
)

// genSocial grows the follower graph G(V,E). Each user u draws a power-law
// out-degree (how many accounts u follows); follow targets are fame-weighted
// samples from the global population (fame drawn in genUsers), with
// homophily towards u's own instance and country. Because fame is an
// infinite-mean Pareto, the follow mass concentrates in a tiny celebrity
// core — reproducing both the degree skew of Fig 11 and the extreme
// fragility of Fig 12 (removing the top 1% of accounts collapses the LCC).
func genSocial(cfg Config, insts []dataset.Instance, users []dataset.User, fame []float64) *graph.CSR {
	if len(users) < 2 {
		return graph.NewBuilder(len(users)).Freeze()
	}
	p := newSocialPlan(cfg, insts, users, fame)
	return p.grow(cfg, p.follows)
}

// socialPlan is what every user's follow draws read: the degree law, the
// isolation flags, the fame-weighted pools and the branch thresholds.
type socialPlan struct {
	users       []dataset.User
	law         *powerLaw
	scale       float64
	followMax   int
	isolated    []bool
	userCountry []int
	instUsers   [][]int32
	all         []int32
	fedInsts    []int32
	global      *fameSampler
	instS       []*fameSampler
	countryS    []*fameSampler
	// A 53-bit draw m is below a threshold t exactly when its Float64,
	// m/2^53, is below the probability t was made from (below).
	noFollow, uniform, instUniform, local, country uint64
}

func newSocialPlan(cfg Config, insts []dataset.Instance, users []dataset.User, fame []float64) *socialPlan {
	n := len(users)
	// Out-degrees: power law scaled so the overall mean (including
	// never-following accounts) hits MeanFollows. Each user draws its
	// passivity, degree and every follow target from its own
	// (seed, stageSocial, id) stream.
	law := newPowerLaw(cfg.FollowExponent, cfg.FollowMax)
	p := &socialPlan{users: users, law: law, followMax: cfg.FollowMax,
		scale: cfg.MeanFollows / law.mean() / (1 - cfg.NoFollowFrac)}

	// A share of small instances never federate (§5.1's isolated tail that
	// keeps the federation-graph LCC at ~92% of instances): their users
	// follow only locally and are invisible to remote pickers.
	median := medianUsers(insts)
	p.isolated = make([]bool, len(insts))
	isoSrc := newUnitSource(cfg.Seed)
	for i := range insts {
		if insts[i].Users <= median && isoSrc.unit(stageIsolated, uint64(i)).Float64() < cfg.IsolatedFrac*2 {
			p.isolated[i] = true
		}
	}

	// Fame-weighted samplers: global, per instance, per country. The global
	// and country pools exclude isolated instances' users.
	countryIdx := make(map[string]int)
	for i := range insts {
		if _, ok := countryIdx[insts[i].Country]; !ok {
			countryIdx[insts[i].Country] = len(countryIdx)
		}
	}
	p.userCountry = make([]int, n)
	p.instUsers = make([][]int32, len(insts))
	countryUsers := make([][]int32, len(countryIdx))
	p.all = make([]int32, 0, n)
	for i := range users {
		inst := users[i].Instance
		c := countryIdx[insts[inst].Country]
		p.userCountry[i] = c
		p.instUsers[inst] = append(p.instUsers[inst], int32(i))
		if !p.isolated[inst] {
			countryUsers[c] = append(countryUsers[c], int32(i))
			p.all = append(p.all, int32(i))
		}
	}
	// Isolated instances' users never draw from the global pool, so a world
	// where every instance is isolated has no global sampler.
	if len(p.all) > 0 {
		p.global = newFameSampler(p.all, fame)
	}
	// Instance-uniform edges: the "uniform" share of follows picks a random
	// federating instance first, then a random user on it. This spreads
	// federation links across the instance long tail, producing the more
	// uniform federation-graph degree distribution of §5.1 (its "remarkably
	// robust linear decay" under removal).
	for i := range insts {
		if !p.isolated[i] && len(p.instUsers[i]) > 0 {
			p.fedInsts = append(p.fedInsts, int32(i))
		}
	}
	p.instS = make([]*fameSampler, len(insts))
	for i, ids := range p.instUsers {
		if len(ids) > 0 {
			p.instS[i] = newFameSampler(ids, fame)
		}
	}
	p.countryS = make([]*fameSampler, len(countryUsers))
	for i, ids := range countryUsers {
		if len(ids) > 0 {
			p.countryS[i] = newFameSampler(ids, fame)
		}
	}

	pInstUniform := cfg.UniformFrac + cfg.InstanceUniformFrac
	pLocal := pInstUniform + cfg.LocalBias
	pCountry := pLocal + (1-pLocal)*cfg.CountryBias
	p.noFollow, p.uniform, p.instUniform = below(cfg.NoFollowFrac), below(cfg.UniformFrac), below(pInstUniform)
	p.local, p.country = below(pLocal), below(pCountry)
	return p
}

// grow runs row for every user and builds the graph from the rows. Each
// worker grows the rows of the ranges it claims in one worker-local arena;
// rows are immutable once cut, so later arena growth never aliases them.
// The in-adjacency is rebuilt canonically from the rows at the end.
// followedBy[v] == u+1 iff u already follows v: user ids are dense, so one
// array per worker dedups every row and is never cleared.
func (p *socialPlan) grow(cfg Config, row func(src *unitSource, ui int, followedBy, arena []int32) []int32) *graph.CSR {
	n := len(p.users)
	out := make([][]int32, n)
	perWorker := n/cfg.shardCount() + claimUnits
	cfg.runWorkers(n, func(src *unitSource) func(lo, hi int) {
		arena := make([]int32, 0, perWorker*(int(cfg.MeanFollows)+2))
		followedBy := make([]int32, n)
		return func(lo, hi int) {
			for ui := lo; ui < hi; ui++ {
				rowStart := len(arena)
				arena = row(src, ui, followedBy, arena)
				out[ui] = arena[rowStart:len(arena):len(arena)]
			}
		}
	})
	return graph.FromRows(out)
}

// want is the number of accounts a user whose law draw is k follows.
func (p *socialPlan) want(k int) int {
	want := int(float64(k)*p.scale + 0.5)
	return max(1, min(want, p.followMax, len(p.users)-1))
}

// follows appends user ui's follow targets to arena: its passivity, degree
// and up to want*20+50 target draws, a self-follow or repeat costing an
// attempt. It reads the unit's stream as raw PCG outputs, and every draw is
// the one rand.Rand would make of the same output: a Float64 compared with
// a probability is its 53 bits against that probability's threshold, a
// weighted pick is IndexBits, and intN replays IntN. An isolated
// instance's users follow only locally, so they get their own loop.
func (p *socialPlan) follows(src *unitSource, ui int, followedBy, arena []int32) []int32 {
	a, b := unitSeedPair(src.seed, stageSocial, uint64(ui))
	rng := &pcg{hi: a, lo: b}
	if rng.Uint64()<<11>>11 < p.noFollow {
		return arena // passive account: follows nobody
	}
	want := p.want(p.law.IndexBits(rng.Uint64()) + 1)
	u := int32(ui)
	inst := p.users[ui].Instance
	local := p.instS[inst]
	budget := want*20 + 50
	added := 0
	if p.isolated[inst] {
		if len(local.ids) < 2 {
			return arena // a lone user on an isolated instance has nobody to follow
		}
		for attempts := 0; added < want && attempts < budget; attempts++ {
			rng.Uint64() // the branch draw, which an isolated user ignores
			v := local.draw(rng.Uint64())
			if v == u || followedBy[v] == u+1 {
				continue
			}
			followedBy[v] = u + 1
			arena = append(arena, v)
			added++
		}
		return arena
	}
	country := p.countryS[p.userCountry[ui]]
	for attempts := 0; added < want && attempts < budget; attempts++ {
		var v int32
		switch m := rng.Uint64() << 11 >> 11; {
		case m < p.uniform:
			v = p.all[intN(rng, len(p.all))]
		case m < p.instUniform:
			pool := p.instUsers[p.fedInsts[intN(rng, len(p.fedInsts))]]
			v = pool[intN(rng, len(pool))]
		case m < p.local:
			v = local.draw(rng.Uint64())
		case m < p.country:
			v = country.draw(rng.Uint64())
		default:
			v = p.global.draw(rng.Uint64())
		}
		if v == u || followedBy[v] == u+1 {
			continue
		}
		followedBy[v] = u + 1
		arena = append(arena, v)
		added++
	}
	return arena
}

// below returns the threshold t with m < t exactly when m/2^53 < prob, for
// every 53-bit m: m/2^53 is exact, so m < prob·2^53, and m is an integer.
func below(prob float64) uint64 {
	switch {
	case !(prob > 0):
		return 0
	case prob >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(math.Ldexp(prob, 53)))
}

// intN is rand.Rand.IntN(n) on rng's stream, n > 0: the same outputs
// consumed, the rejection retry included (math/rand/v2's uint64n on a
// 64-bit platform).
func intN(rng *pcg, n int) int {
	un := uint64(n)
	if un&(un-1) == 0 {
		return int(rng.Uint64() & (un - 1))
	}
	hi, lo := bits.Mul64(rng.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(rng.Uint64(), un)
		}
	}
	return int(hi)
}

// pcg is math/rand/v2's PCG (a 128-bit LCG with the DXSM output), copied
// so that follows keeps the state in a local: on traced gen.generate_s the
// copy beat calls into the standard library's *rand.PCG in 8 of 8
// alternating bench pairs (DESIGN.md, Settled ablations). &pcg{hi: a, lo:
// b} is rand.NewPCG(a, b) output for output (TestPCGMatchesStdlib).
type pcg struct{ hi, lo uint64 }

// Uint64 advances the state and returns its next output.
func (p *pcg) Uint64() uint64 {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	// state = state * mul + inc
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.lo, p.hi = lo, hi
	// DXSM "double xorshift multiply"
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// medianUsers returns the median instance size.
func medianUsers(insts []dataset.Instance) int {
	sizes := make([]int, len(insts))
	for i := range insts {
		sizes[i] = insts[i].Users
	}
	sort.Ints(sizes)
	if len(sizes) == 0 {
		return 0
	}
	return sizes[len(sizes)/2]
}

// fameSampler draws ids proportionally to their fame.
type fameSampler struct {
	ids  []int32
	pick *stats.CumSampler
}

func newFameSampler(ids []int32, fame []float64) *fameSampler {
	cum := make([]float64, len(ids))
	total := 0.0
	for i, id := range ids {
		total += fame[id]
		cum[i] = total
	}
	return &fameSampler{ids: ids, pick: stats.NewCumSampler(cum)}
}

// draw returns the id a raw PCG output picks (stats.CumSampler.IndexBits).
func (s *fameSampler) draw(b uint64) int32 { return s.ids[s.pick.IndexBits(b)] }

// induceFederation builds GF(I,E) from the social graph exactly as §3
// defines it: a directed edge Ia→Ib exists iff at least one user on Ia
// follows a user on Ib, deduplicated by the stamped group-bucket kernel
// (DESIGN.md).
func induceFederation(social *graph.CSR, users []dataset.User, numInstances int) *graph.CSR {
	group := make([]int32, len(users))
	for i := range users {
		group[i] = users[i].Instance
	}
	return social.Induce(group, numInstances)
}
