package gen

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dataset"
)

// categorySpec drives Fig 3: Share is the fraction of *categorised*
// instances carrying the tag; SizeBias skews the tag towards large (>1) or
// small (<1) instances by user-count rank; TootBoost multiplies the toot
// rate of the instance's users (games/anime toot a lot, tech less).
type categorySpec struct {
	Cat       dataset.Category
	Share     float64
	HeadShare float64 // multiplier applied within the top size decile
	TootBoost float64
}

func categoryTable() []categorySpec {
	return []categorySpec{
		{dataset.CatTech, 0.552, 1.0, 0.55},
		{dataset.CatGames, 0.373, 1.0, 1.8},
		{dataset.CatArt, 0.3015, 1.0, 1.0},
		{dataset.CatActivism, 0.20, 0.8, 0.9},
		{dataset.CatMusic, 0.18, 1.0, 1.0},
		{dataset.CatAnime, 0.246, 1.2, 2.2},
		{dataset.CatBooks, 0.12, 0.8, 0.8},
		{dataset.CatAcademia, 0.10, 0.7, 0.8},
		{dataset.CatLGBT, 0.10, 1.0, 1.0},
		{dataset.CatJournalism, 0.12, 0.15, 0.7},
		{dataset.CatFurry, 0.08, 1.1, 1.3},
		{dataset.CatSports, 0.06, 0.8, 0.9},
		{dataset.CatAdult, 0.123, 5.5, 1.4},
		{dataset.CatPOC, 0.04, 0.9, 1.0},
		{dataset.CatHumor, 0.04, 1.0, 1.1},
	}
}

// activitySpec drives Fig 4: ProhibitProb is the probability that a
// policy-declaring instance prohibits the activity; AllowSizeBias skews the
// *allowing* instances towards large ones (advertising is allowed by 47% of
// instances that hold 61% of users).
type activitySpec struct {
	Act           dataset.Activity
	ProhibitProb  float64
	AllowSizeBias float64
}

func activityTable() []activitySpec {
	return []activitySpec{
		{dataset.ActNudityNSFW, 0.16, 1.0},
		{dataset.ActPornNSFW, 0.25, 1.0},
		{dataset.ActSpoilersNoCW, 0.30, 1.0},
		{dataset.ActAdvertising, 0.53, 2.2},
		{dataset.ActIllegalLinks, 0.55, 0.8},
		{dataset.ActNudityNoNSFW, 0.62, 0.9},
		{dataset.ActPornNoNSFW, 0.66, 0.9},
		{dataset.ActSpam, 0.76, 0.7},
	}
}

// instanceModel carries per-instance intermediates the later stages need.
type instanceModel struct {
	insts     []dataset.Instance
	tootBoost []float64 // per-instance toot-rate multiplier
	sizeRank  []int     // 0 = most users
}

// growthDay samples a creation day following the Fig 1 phases: 64% of
// instances appear in the first 17% of the period, 6% in the next 39%, and
// 30% in the final 44% (the 2018 revival).
func growthDay(r *rand.Rand, days int) int {
	p1 := int(float64(days) * 0.17)
	p2 := int(float64(days) * 0.56)
	u := r.Float64()
	switch {
	case u < 0.64:
		return r.IntN(maxInt(p1, 1))
	case u < 0.70:
		return p1 + r.IntN(maxInt(p2-p1, 1))
	default:
		return p2 + r.IntN(maxInt(days-p2, 1))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// genInstances builds the instance population: sizes, placement, policies
// and lifecycle. Users are not yet attached (genUsers does that). Each
// instance synthesises itself from its own (seed, stageInstance, id) stream,
// so the population can be built on any number of shards without changing a
// byte.
func genInstances(cfg Config) *instanceModel {
	n := cfg.Instances

	countries := countryTable()
	asSpecs := buildASRegistry(targetASCount(n), countries)

	// 1. Size ladder: users per instance, largest first, then shuffled onto
	// instance ids so id order carries no meaning.
	sizes := zipfMandelbrot(n, cfg.SizeExponent, cfg.SizeOffset, cfg.Users)
	perm := subSeed(cfg.Seed, stagePerm).Perm(n)

	m := &instanceModel{
		insts:     make([]dataset.Instance, n),
		tootBoost: make([]float64, n),
		sizeRank:  make([]int, n),
	}

	// Samplers for placement. Hub variants boost cloud providers and
	// hub-heavy countries for the largest decile of instances.
	countryW := make([]float64, len(countries))
	countryHubW := make([]float64, len(countries))
	for i, c := range countries {
		countryW[i] = c.InstanceShare
		countryHubW[i] = c.InstanceShare * c.HubBoost
	}
	asW := make([]float64, len(asSpecs))
	asHubW := make([]float64, len(asSpecs))
	for i, s := range asSpecs {
		asW[i] = s.InstanceShare
		asHubW[i] = s.InstanceShare * s.HubBoost
	}
	countryPick := newWeighted(countryW)
	countryHubPick := newWeighted(countryHubW)
	asPick := newWeighted(asW)
	asHubPick := newWeighted(asHubW)

	cas := caTable()
	caW := make([]float64, len(cas))
	for i, c := range cas {
		caW[i] = c.Share
	}
	caPick := newWeighted(caW)

	cats := categoryTable()
	acts := activityTable()

	hubCut := n / 10 // top decile by size
	massIssued := cfg.MassExpiryDay - cfg.CertRenewDays

	cfg.runShards(n, func(src *unitSource, lo, hi int) {
		for rank := lo; rank < hi; rank++ {
			id := perm[rank]
			r := src.unit(stageInstance, uint64(id))
			in := &m.insts[id]
			in.ID = int32(id)
			in.Domain = fmt.Sprintf("instance-%04d.fedi.test", id)
			in.Users = sizes[rank]
			m.sizeRank[id] = rank
			isHub := rank < hubCut
			pct := float64(rank) / float64(n)

			// Software (§3).
			if r.Float64() < cfg.PleromaFrac {
				in.Software = dataset.SoftwarePleroma
			} else {
				in.Software = dataset.SoftwareMastodon
			}

			// Placement: country and AS sampled independently against their
			// Fig 5 marginals (see DESIGN.md on the Table 2 US-IP anomaly).
			if isHub {
				in.Country = countries[countryHubPick.Sample(r)].Name
				spec := asSpecs[asHubPick.Sample(r)]
				in.ASN = spec.ASN
			} else {
				in.Country = countries[countryPick.Sample(r)].Name
				spec := asSpecs[asPick.Sample(r)]
				in.ASN = spec.ASN
			}
			in.IP = fmt.Sprintf("10.%d.%d.%d", (id>>16)&255, (id>>8)&255, id&255)
			in.CA = cas[caPick.Sample(r)].Name

			// Registration type (§4.1): larger instances are likelier open.
			pOpen := clamp(cfg.OpenFrac+cfg.OpenSizeBias*(0.5-pct), 0.05, 0.95)
			in.Open = r.Float64() < pOpen

			// Activity level (Fig 2c): closed instances are more engaged.
			if in.Open {
				in.MaxWeeklyActivePct = clamp(50+15*r.NormFloat64(), 2, 100)
			} else {
				in.MaxWeeklyActivePct = clamp(75+12*r.NormFloat64(), 2, 100)
			}

			// Categories (Fig 3).
			m.tootBoost[id] = 1.0
			if r.Float64() < cfg.CategorizedFrac {
				in.Categorized = true
				if r.Float64() < 0.517 {
					in.Categories = append(in.Categories, dataset.CatGeneric)
				}
				for _, cs := range cats {
					p := cs.Share
					if isHub {
						p *= cs.HeadShare
					} else {
						// Keep the overall share on target given the head boost.
						p *= (1 - cs.HeadShare*0.1) / 0.9
					}
					if r.Float64() < clamp(p, 0, 1) {
						in.Categories = append(in.Categories, cs.Cat)
						m.tootBoost[id] *= cs.TootBoost
					}
				}
			}

			// Activity policies (Fig 4).
			in.Operator = pickOperator(r, isHub)
			if r.Float64() < cfg.AllowAllFrac {
				for _, as := range acts {
					in.Allowed = append(in.Allowed, as.Act)
				}
			} else {
				for _, as := range acts {
					pProhibit := as.ProhibitProb
					if isHub && as.AllowSizeBias != 1.0 {
						// Size bias acts on the allow side.
						pProhibit = clamp(1-(1-as.ProhibitProb)*as.AllowSizeBias, 0, 1)
					}
					if r.Float64() < pProhibit {
						in.Prohibited = append(in.Prohibited, as.Act)
					} else {
						in.Allowed = append(in.Allowed, as.Act)
					}
				}
			}

			// Lifecycle (Fig 1): creation phase, and 21.3% churn limited to the
			// smaller 80% of instances (the paper's vanished instances are
			// long-tail ones). Instances on the Table-1 outage ASes are stable:
			// they appeared early and survived the whole period (they failed
			// *temporarily* with their AS and came back).
			if plannedOutageASNs[in.ASN] {
				in.CreatedDay = r.IntN(maxInt(int(float64(cfg.Days)*0.17), 1))
				in.GoneDay = -1
			} else {
				in.CreatedDay = growthDay(r, cfg.Days)
				in.GoneDay = -1
				if pct > 0.2 && r.Float64() < cfg.ChurnFrac/0.8 {
					span := cfg.Days - in.CreatedDay - 7
					if span > 1 {
						in.GoneDay = in.CreatedDay + 7 + r.IntN(span)
					}
				}
			}

			// Crawlability (§3).
			in.BlocksCrawl = r.Float64() < cfg.BlocksCrawlFrac

			// Certificates (Fig 9): issued shortly after creation.
			spread := cfg.CertIssuedSpread
			if spread < 1 {
				spread = 1
			}
			in.CertIssuedDay = in.CreatedDay + r.IntN(spread)

			// Mass-expiry batch (Fig 9b): a share of Let's Encrypt instances
			// were all issued on the same day, expiring together on
			// MassExpiryDay.
			if cfg.MassExpiryDay >= cfg.CertRenewDays &&
				in.CA == "Let's Encrypt" && in.CreatedDay <= massIssued {
				if r.Float64() < cfg.MassExpiryShare/0.855 {
					in.CertIssuedDay = massIssued
				}
			}
		}
	})

	return m
}

func pickOperator(r *rand.Rand, isHub bool) dataset.Operator {
	u := r.Float64()
	if isHub {
		switch {
		case u < 0.45:
			return dataset.OpIndividual
		case u < 0.65:
			return dataset.OpCompany
		case u < 0.90:
			return dataset.OpCrowdFunded
		case u < 0.96:
			return dataset.OpCollective
		default:
			return dataset.OpUnknown
		}
	}
	switch {
	case u < 0.80:
		return dataset.OpIndividual
	case u < 0.85:
		return dataset.OpCompany
	case u < 0.92:
		return dataset.OpCrowdFunded
	case u < 0.97:
		return dataset.OpCollective
	default:
		return dataset.OpUnknown
	}
}

// targetASCount scales the AS registry with the world: the paper observes
// 351 ASes over 4,328 instances (≈12 instances per AS on average).
func targetASCount(instances int) int {
	n := instances / 12
	if n < 30 {
		n = 30
	}
	if n > 351 {
		n = 351
	}
	return n
}
