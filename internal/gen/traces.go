package gen

import (
	"math/rand/v2"

	"repro/internal/dataset"
	"repro/internal/sim"
)

// genTraces builds the 5-minute availability record of §4.4 for every
// instance: background outages following the Fig 7 downtime mixture,
// AS-wide simultaneous failures (Table 1), and certificate-expiry outages
// (Fig 9b). Slots before an instance's creation and after its permanent
// disappearance are marked down — that is literally what the mnm.social
// prober would have observed.
func genTraces(cfg Config, insts []dataset.Instance) (*sim.TraceSet, map[int32][]int) {
	spd := dataset.SlotsPerDay
	ts := sim.NewTraceSet(len(insts), cfg.Days, spd)

	// Each instance draws its whole availability record from its own
	// (seed, stageTraces, id) stream and writes only its own trace, so the
	// per-instance loop shards freely. Cert-outage days land in an
	// id-indexed table and are folded into the map afterwards.
	certDays := make([][]int, len(insts))
	cfg.runShards(len(insts), func(src *unitSource, lo, hi int) {
		for id := lo; id < hi; id++ {
			r := src.unit(stageTraces, uint64(id))
			in := &insts[id]
			tr := ts.Traces[id]
			start := in.CreatedDay * spd
			end := cfg.Days * spd
			if in.GoneDay >= 0 {
				end = in.GoneDay * spd
			}
			// Pre-creation and post-churn slots: unreachable.
			tr.SetDownRange(0, start)
			tr.SetDownRange(end, cfg.Days*spd)
			window := end - start
			if window <= 0 {
				continue
			}

			// Background outages up to the instance's target downtime share.
			target := downtimeTarget(cfg, r, insts[id].Toots)
			budget := int(target * float64(window))
			for used := 0; used < budget; {
				dur := expSlots(r, cfg.MeanOutageSlots, cfg.MinOutageSlots)
				if r.Float64() < 0.003 {
					dur *= 20 // occasional multi-day outage (Fig 10 tail)
				}
				if dur > budget-used {
					dur = budget - used
				}
				if dur < 1 {
					break
				}
				at := start + r.IntN(window)
				if at+dur > end {
					at = end - dur
				}
				tr.SetDownRange(at, at+dur)
				used += dur
			}

			// A small share of instances take a month-plus hiatus and return
			// (Fig 10: 7% of instances have ≥1-month continuous outages).
			if minSlots := cfg.HiatusMinDays * spd; r.Float64() < cfg.HiatusFrac && window > minSlots*2 {
				dur := minSlots + expSlots(r, cfg.HiatusMeanDays*float64(spd), 0)
				if dur > window-spd {
					dur = window - spd
				}
				at := start + r.IntN(window-dur)
				tr.SetDownRange(at, at+dur)
			}

			// Certificate-expiry outages (only the dominant CA's short-lived
			// certificates fail in practice; Fig 9b).
			if in.CA == "Let's Encrypt" {
				for _, day := range in.CertExpiryDays(cfg.Days, cfg.CertRenewDays) {
					if day < in.CreatedDay || (in.GoneDay >= 0 && day >= in.GoneDay) {
						continue
					}
					massBatch := cfg.MassExpiryDay >= 0 && day == cfg.MassExpiryDay &&
						in.CertIssuedDay == cfg.MassExpiryDay-cfg.CertRenewDays
					if !massBatch && r.Float64() >= cfg.CertFailProb {
						continue
					}
					at := day * spd
					dur := expSlots(r, cfg.CertOutageDays*float64(spd), spd/2)
					if at+dur > end {
						dur = end - at
					}
					if dur <= 0 {
						continue
					}
					tr.SetDownRange(at, at+dur)
					certDays[id] = append(certDays[id], day)
				}
			}
		}
	})

	certOutages := make(map[int32][]int)
	for id, days := range certDays {
		if len(days) > 0 {
			certOutages[int32(id)] = days
		}
	}
	injectASOutages(cfg, subSeed(cfg.Seed, stageASOutage), insts, ts)
	ts.Trim()
	return ts, certOutages
}

// downtimeTarget draws an instance's overall downtime fraction from the
// Fig 7 mixture, with the Fig 8 size dependence: tiny instances skew
// unreliable, the 100K-1M band is the most reliable, and the very largest
// are slightly worse again (median 2.1% vs 0.34% in the paper).
func downtimeTarget(cfg Config, r *rand.Rand, toots int64) float64 {
	exc, good, bad := cfg.ExcellentFrac, cfg.GoodFrac, cfg.BadFrac
	switch {
	case toots < 10_000:
		bad *= 1.35
		good *= 0.85
	case toots >= 100_000 && toots < 1_000_000:
		exc *= 4
		bad *= 0.25
	case toots >= 1_000_000:
		exc *= 2
		bad *= 0.4
	}
	u := r.Float64()
	switch {
	case u < exc:
		return 0.001 + 0.004*r.Float64()
	case u < exc+good:
		return 0.005 + 0.045*r.Float64()
	case u < exc+good+bad:
		return 0.50 + 0.40*r.Float64()
	default:
		return 0.04 + 0.18*r.Float64()
	}
}

// injectASOutages makes every instance of each planned AS fail
// simultaneously Count times (Table 1).
func injectASOutages(cfg Config, r *rand.Rand, insts []dataset.Instance, ts *sim.TraceSet) {
	spd := ts.SlotsPerDay
	byName := make(map[string][]int32)
	nameOf := make(map[int]string)
	for _, a := range asTable() {
		nameOf[a.ASN] = a.Name
	}
	for i := range insts {
		if n, ok := nameOf[insts[i].ASN]; ok {
			byName[n] = append(byName[n], int32(i))
		}
	}
	for _, plan := range cfg.ASOutages {
		members := byName[plan.Name]
		if len(members) == 0 {
			continue
		}
		// The window in which every member exists.
		lo, hi := 0, cfg.Days*spd
		for _, id := range members {
			in := &insts[id]
			if s := in.CreatedDay * spd; s > lo {
				lo = s
			}
			if in.GoneDay >= 0 {
				if e := in.GoneDay * spd; e < hi {
					hi = e
				}
			}
		}
		if hi-lo < spd {
			continue // no common window: skip this plan
		}
		for k := 0; k < plan.Count; k++ {
			dur := expSlots(r, plan.MeanHours*12, 6)
			at := lo + r.IntN(max(hi-lo-dur, 1))
			for _, id := range members {
				ts.Traces[id].SetDownRange(at, at+dur)
			}
		}
	}
}
