// Package twitter provides the two comparison baselines the paper uses:
// a Twitter-shaped social graph standing in for the 2011 Leskovec-McAuley
// snapshot (Figs 11 and 12) and a 2007-style pingdom uptime trace
// (Fig 8, mean downtime 1.25%).
//
// The Twitter graph is deliberately *denser and flatter* than the Mastodon
// graph: follows mix uniform attachment with a finite-mean popularity bias,
// and every account follows at least a few others. That is what makes it
// robust to hub removal (removing the top 10% of accounts keeps ≈80% of
// users in the LCC) where Mastodon's graph collapses.
package twitter

import (
	"math"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
)

// GraphConfig parameterises the baseline graph.
type GraphConfig struct {
	Seed        uint64
	Users       int
	MeanFollows float64 // mean out-degree
	MinFollows  int     // floor on out-degree (Twitter users follow several accounts)
	FameTail    float64 // Pareto tail index; >1 keeps the popularity mass spread out
	UniformFrac float64 // share of follows that ignore popularity entirely
}

// DefaultGraphConfig returns the calibrated baseline.
func DefaultGraphConfig(seed uint64, users int) GraphConfig {
	return GraphConfig{
		Seed:        seed,
		Users:       users,
		MeanFollows: 12,
		MinFollows:  3,
		FameTail:    1.3,
		UniformFrac: 0.4,
	}
}

// Graph builds the baseline follower graph. Every row is appended to one
// arena, user by user, and cut from it once all are drawn.
func Graph(cfg GraphConfig) *graph.CSR {
	r := rand.New(rand.NewPCG(cfg.Seed, 0x7777))
	n := cfg.Users
	rows := make([][]int32, n)
	if n < 2 {
		return graph.FromRows(rows)
	}

	fame := make([]float64, n)
	cum := make([]float64, n)
	total := 0.0
	for i := range fame {
		u := r.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		f := math.Pow(u, -1/cfg.FameTail)
		if f > 1e6 {
			f = 1e6
		}
		fame[i] = f
		total += f
		cum[i] = total
	}
	byFame := gen.NewCumSampler(cum)

	// Out-degrees: geometric-ish around the mean with a hard floor.
	// followedBy[v] == u+1 iff u already follows v; user u's row is
	// arena[end[u-1]:end[u]].
	followedBy := make([]int32, n)
	arena := make([]int32, 0, int(float64(n)*cfg.MeanFollows))
	end := make([]int, n)
	for u := 0; u < n; u++ {
		k := cfg.MinFollows + int(r.ExpFloat64()*(cfg.MeanFollows-float64(cfg.MinFollows)))
		if k > n-1 {
			k = n - 1
		}
		attempts := 0
		for added := 0; added < k && attempts < k*10+20; attempts++ {
			var v int32
			if r.Float64() < cfg.UniformFrac {
				v = int32(r.IntN(n))
			} else {
				v = int32(byFame.Sample(r))
			}
			if v == int32(u) || followedBy[v] == int32(u)+1 {
				continue
			}
			followedBy[v] = int32(u) + 1
			arena = append(arena, v)
			added++
		}
		end[u] = len(arena)
	}
	start := 0
	for u, e := range end {
		rows[u], start = arena[start:e], e
	}
	return graph.FromRows(rows)
}

// UptimeConfig parameterises the 2007-style availability trace.
type UptimeConfig struct {
	Seed            uint64
	Days            int
	SlotsPerDay     int
	TargetDowntime  float64 // pingdom 2007: ≈1.25%
	MeanOutageSlots float64
}

// DefaultUptimeConfig returns the calibrated 2007 Twitter baseline.
func DefaultUptimeConfig(seed uint64, days int) UptimeConfig {
	return UptimeConfig{
		Seed:            seed,
		Days:            days,
		SlotsPerDay:     288,
		TargetDowntime:  0.0125,
		MeanOutageSlots: 9, // the Fail Whale era: frequent short outages
	}
}

// Uptime builds the availability trace.
func Uptime(cfg UptimeConfig) *sim.Trace {
	r := rand.New(rand.NewPCG(cfg.Seed, 0x2007))
	slots := cfg.Days * cfg.SlotsPerDay
	tr := sim.NewTrace(slots)
	budget := int(cfg.TargetDowntime * float64(slots))
	for used := 0; used < budget; {
		dur := int(r.ExpFloat64() * cfg.MeanOutageSlots)
		if dur < 1 {
			dur = 1
		}
		if dur > budget-used {
			dur = budget - used
		}
		at := r.IntN(slots - dur + 1)
		tr.SetDownRange(at, at+dur)
		used += dur
	}
	return tr
}

// DailyDowntime returns the per-day downtime fractions of a trace, the form
// Fig 8 plots next to the Mastodon boxes.
func DailyDowntime(tr *sim.Trace, slotsPerDay int) []float64 {
	days := tr.N() / slotsPerDay
	out := make([]float64, days)
	for d := 0; d < days; d++ {
		out[d] = tr.DownFraction(d*slotsPerDay, (d+1)*slotsPerDay)
	}
	return out
}
