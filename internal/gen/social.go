package gen

import (
	"math/rand/v2"
	"sort"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// genSocial grows the follower graph G(V,E). Each user u draws a power-law
// out-degree (how many accounts u follows); follow targets are fame-weighted
// samples from the global population (fame drawn in genUsers), with
// homophily towards u's own instance and country. Because fame is an
// infinite-mean Pareto, the follow mass concentrates in a tiny celebrity
// core — reproducing both the degree skew of Fig 11 and the extreme
// fragility of Fig 12 (removing the top 1% of accounts collapses the LCC).
func genSocial(cfg Config, insts []dataset.Instance, users []dataset.User, fame []float64) *graph.CSR {
	n := len(users)
	if n < 2 {
		return graph.NewBuilder(n).Freeze()
	}

	// Out-degrees: power law scaled so the overall mean (including
	// never-following accounts) hits MeanFollows. Each user draws its
	// passivity, degree and every follow target from its own
	// (seed, stageSocial, id) stream.
	law := newPowerLaw(cfg.FollowExponent, cfg.FollowMax)
	scale := cfg.MeanFollows / law.mean() / (1 - cfg.NoFollowFrac)

	// A share of small instances never federate (§5.1's isolated tail that
	// keeps the federation-graph LCC at ~92% of instances): their users
	// follow only locally and are invisible to remote pickers.
	median := medianUsers(insts)
	isolated := make([]bool, len(insts))
	isoSrc := newUnitSource(cfg.Seed)
	for i := range insts {
		if insts[i].Users <= median && isoSrc.unit(stageIsolated, uint64(i)).Float64() < cfg.IsolatedFrac*2 {
			isolated[i] = true
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
	userCountry := make([]int, n)
	instUsers := make([][]int32, len(insts))
	countryUsers := make([][]int32, len(countryIdx))
	all := make([]int32, 0, n)
	for i := range users {
		inst := users[i].Instance
		c := countryIdx[insts[inst].Country]
		userCountry[i] = c
		instUsers[inst] = append(instUsers[inst], int32(i))
		if !isolated[inst] {
			countryUsers[c] = append(countryUsers[c], int32(i))
			all = append(all, int32(i))
		}
	}
	// Isolated instances' users never draw from the global pool, so a world
	// where every instance is isolated has no global sampler.
	var global *fameSampler
	if len(all) > 0 {
		global = newFameSampler(all, fame)
	}
	// Instance-uniform edges: the "uniform" share of follows picks a random
	// federating instance first, then a random user on it. This spreads
	// federation links across the instance long tail, producing the more
	// uniform federation-graph degree distribution of §5.1 (its "remarkably
	// robust linear decay" under removal).
	var fedInsts []int32
	for i := range insts {
		if !isolated[i] && len(instUsers[i]) > 0 {
			fedInsts = append(fedInsts, int32(i))
		}
	}
	instS := make([]*fameSampler, len(insts))
	for i, ids := range instUsers {
		if len(ids) > 0 {
			instS[i] = newFameSampler(ids, fame)
		}
	}
	countryS := make([]*fameSampler, len(countryUsers))
	for i, ids := range countryUsers {
		if len(ids) > 0 {
			countryS[i] = newFameSampler(ids, fame)
		}
	}

	pInstUniform := cfg.UniformFrac + cfg.InstanceUniformFrac
	pLocal := pInstUniform + cfg.LocalBias
	pCountry := pLocal + (1-pLocal)*cfg.CountryBias

	// Each shard grows its users' adjacency rows in a worker-local arena;
	// rows are immutable once cut, so later arena growth never aliases them.
	// The in-adjacency is rebuilt canonically from the rows at the end.
	out := make([][]int32, n)
	meanDeg := int(cfg.MeanFollows) + 2
	cfg.runShards(n, func(src *unitSource, lo, hi int) {
		arena := make([]int32, 0, (hi-lo)*meanDeg)
		// followedBy[v] == u+1 iff u already follows v: user ids are dense,
		// so one array per shard dedups every row and is never cleared.
		followedBy := make([]int32, n)
		for ui := lo; ui < hi; ui++ {
			r := src.unit(stageSocial, uint64(ui))
			if r.Float64() < cfg.NoFollowFrac {
				continue // passive account: follows nobody
			}
			want := int(float64(law.sample(r))*scale + 0.5)
			if want < 1 {
				want = 1
			}
			if want > cfg.FollowMax {
				want = cfg.FollowMax
			}
			if want > n-1 {
				want = n - 1
			}
			u := int32(ui)
			inst := users[ui].Instance
			if isolated[inst] && len(instUsers[inst]) < 2 {
				continue // a lone user on an isolated instance has nobody to follow
			}
			c := userCountry[ui]
			rowStart := len(arena)
			attempts := 0
			for added := 0; added < want && attempts < want*20+50; attempts++ {
				var v int32
				x := r.Float64()
				switch {
				case isolated[inst]:
					v = instS[inst].sample(r)
				case x < cfg.UniformFrac:
					v = all[r.IntN(len(all))]
				case x < pInstUniform:
					ri := fedInsts[r.IntN(len(fedInsts))]
					pool := instUsers[ri]
					v = pool[r.IntN(len(pool))]
				case x < pLocal:
					v = instS[inst].sample(r)
				case x < pCountry:
					v = countryS[c].sample(r)
				default:
					v = global.sample(r)
				}
				if v == u || followedBy[v] == u+1 {
					continue
				}
				followedBy[v] = u + 1
				arena = append(arena, v)
				added++
			}
			out[ui] = arena[rowStart:len(arena):len(arena)]
		}
	})
	return graph.FromRows(out)
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
	pick *CumSampler
}

func newFameSampler(ids []int32, fame []float64) *fameSampler {
	cum := make([]float64, len(ids))
	total := 0.0
	for i, id := range ids {
		total += fame[id]
		cum[i] = total
	}
	return &fameSampler{ids: ids, pick: NewCumSampler(cum)}
}

func (s *fameSampler) sample(r *rand.Rand) int32 { return s.ids[s.pick.Sample(r)] }

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
