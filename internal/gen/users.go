package gen

import (
	"math"

	"repro/internal/dataset"
)

// genUsers attaches users to instances according to the size ladder, draws
// each user's fame (follow attractiveness, a heavy Pareto tail) and derives
// toot and boost volumes from it. Fame drives the social graph (genSocial);
// its sublinear link to toots reproduces both the paper's celebrity-core
// fragility (Fig 12) and its spread-out toot mass (§5.2). Instance counters
// (Toots/Boosts) become the "instances" dataset of §3.
func genUsers(cfg Config, m *instanceModel) ([]dataset.User, []float64) {
	// User ids are positional: instance id order, offset by a prefix sum of
	// the size ladder. Each instance then synthesises its own users from its
	// (seed, stageUsers, id) stream into a disjoint slice of the output.
	offsets := make([]int, len(m.insts)+1)
	for i := range m.insts {
		offsets[i+1] = offsets[i] + m.insts[i].Users
	}
	total := offsets[len(m.insts)]
	users := make([]dataset.User, total)
	fame := make([]float64, total)
	meanUsers := float64(total) / float64(len(m.insts))

	cfg.runShards(len(m.insts), func(src *unitSource, lo, hi int) {
		for id := lo; id < hi; id++ {
			r := src.unit(stageUsers, uint64(id))
			in := &m.insts[id]
			boost := m.tootBoost[id]
			if !in.Open {
				boost *= cfg.ClosedTootBoost
			}
			// Larger communities are more active per capita (§4.1: the top 5%
			// of instances hold 94.8% of toots, above their 90.6% user share).
			sizeBoost := math.Pow(float64(in.Users)/meanUsers, 0.3)
			boost *= clamp(sizeBoost, 0.5, 8)
			endDay := cfg.Days
			if in.GoneDay >= 0 {
				endDay = in.GoneDay
			}
			span := endDay - in.CreatedDay
			if span < 1 {
				span = 1
			}
			var toots, boosts int64
			for u := 0; u < in.Users; u++ {
				idx := offsets[id] + u
				usr := dataset.User{
					ID:       int32(idx),
					Instance: int32(id),
					JoinDay:  int32(in.CreatedDay + r.IntN(span)),
					Private:  r.Float64() < cfg.PrivateUserFrac,
				}
				// Fame: Pareto with tail index FameTail (<1 ⇒ the celebrity
				// core absorbs most follow mass).
				uu := r.Float64()
				if uu < 1e-9 {
					uu = 1e-9
				}
				f := math.Pow(uu, -1/cfg.FameTail)
				if f > 1e8 {
					f = 1e8
				}
				fame[idx] = f

				// Toots: sublinear in fame, times lognormal noise and the
				// instance's category/registration rate multiplier. The
				// instance's first user is its admin, who almost always toots —
				// keeping genuinely silent instances rare (Fig 14's 5% pure
				// consumers).
				zeroFrac := cfg.ZeroTootFrac
				if u == 0 {
					zeroFrac = 0.15
				}
				if r.Float64() >= zeroFrac {
					noise := math.Exp(r.NormFloat64() * cfg.TootNoiseSigma)
					t := cfg.TootScale * math.Pow(f, cfg.TootFameExponent) * noise * boost
					// The counters are int32, so they saturate there too.
					t = min(t, float64(cfg.TootMax), math.MaxInt32)
					usr.Toots = max(int32(t), 1)
					usr.Boosts = int32(min(cfg.BoostRatio*float64(usr.Toots)*r.Float64()*2, math.MaxInt32))
				}
				toots += int64(usr.Toots)
				boosts += int64(usr.Boosts)
				users[idx] = usr
			}
			in.Toots = toots
			in.Boosts = boosts
		}
	})
	return users, fame
}
