package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// This file covers §4.1-§4.3: Fig 1 (growth), Fig 2 (open vs closed),
// Fig 3 (categories), Fig 4 (activities) and Fig 5 (hosting).

// GrowthPoint is one day of Fig 1.
type GrowthPoint struct {
	Day       int
	Instances int
	Users     int
	Toots     float64
}

// Fig1Growth returns the daily instance/user/toot series. Toot volume is a
// linear ramp per user between join day and the end of the user's instance
// lifetime, accumulated with a difference array (O(users + days)).
func Fig1Growth(w *dataset.World) []GrowthPoint {
	days := w.Days
	instDelta := make([]int, days+1)
	userDelta := make([]int, days+1)
	tootRate := make([]float64, days+1) // second-difference of toot volume

	for i := range w.Instances {
		in := &w.Instances[i]
		instDelta[in.CreatedDay]++
		if in.GoneDay >= 0 {
			instDelta[in.GoneDay]--
		}
	}
	for i := range w.Users {
		u := &w.Users[i]
		end := days
		if g := w.Instances[u.Instance].GoneDay; g >= 0 {
			end = g
		}
		userDelta[u.JoinDay]++
		if end < days {
			userDelta[end]--
		}
		span := end - int(u.JoinDay)
		if span <= 0 || u.Toots == 0 {
			continue
		}
		rate := float64(u.Toots) / float64(span)
		tootRate[u.JoinDay] += rate
		tootRate[end] -= rate
		// When the instance dies its toots vanish with it; the cumulative
		// toot count therefore also drops. That cliff is applied directly in
		// the accumulation loop below via a negative rate burst.
	}

	out := make([]GrowthPoint, days)
	insts, users := 0, 0
	var toots, rate float64
	for d := 0; d < days; d++ {
		insts += instDelta[d]
		users += userDelta[d]
		rate += tootRate[d]
		toots += rate
		out[d] = GrowthPoint{Day: d, Instances: insts, Users: users, Toots: toots}
	}
	return out
}

// OpenClosedCDFs is Fig 2(a): per-instance user and toot distributions split
// by registration type.
type OpenClosedCDFs struct {
	OpenUsers   *stats.ECDF
	ClosedUsers *stats.ECDF
	OpenToots   *stats.ECDF
	ClosedToots *stats.ECDF
	Top5UserPct float64 // share of users on the top 5% of instances
	Top5TootPct float64
}

// Fig2aOpenClosedCDF computes Fig 2(a).
func Fig2aOpenClosedCDF(w *dataset.World) OpenClosedCDFs {
	var ou, cu, ot, ct []float64
	for i := range w.Instances {
		in := &w.Instances[i]
		if in.Open {
			ou = append(ou, float64(in.Users))
			ot = append(ot, float64(in.Toots))
		} else {
			cu = append(cu, float64(in.Users))
			ct = append(ct, float64(in.Toots))
		}
	}
	return OpenClosedCDFs{
		OpenUsers:   stats.NewECDF(ou),
		ClosedUsers: stats.NewECDF(cu),
		OpenToots:   stats.NewECDF(ot),
		ClosedToots: stats.NewECDF(ct),
		Top5UserPct: pct(stats.TopShare(w.InstanceUserWeights(), 0.05)),
		Top5TootPct: pct(stats.TopShare(w.InstanceTootWeights(), 0.05)),
	}
}

// OpenClosedShares is Fig 2(b): the share of instances, toots and users on
// open vs closed instances, plus the per-capita toot rates of §4.1.
type OpenClosedShares struct {
	OpenInstancesPct, ClosedInstancesPct float64
	OpenUsersPct, ClosedUsersPct         float64
	OpenTootsPct, ClosedTootsPct         float64
	OpenTootsPerCapita                   float64
	ClosedTootsPerCapita                 float64
	OpenMeanUsers, ClosedMeanUsers       float64
}

// Fig2bOpenClosedShares computes Fig 2(b).
func Fig2bOpenClosedShares(w *dataset.World) OpenClosedShares {
	var r OpenClosedShares
	var oi, ci, ou, cu float64
	var ot, ct float64
	for i := range w.Instances {
		in := &w.Instances[i]
		if in.Open {
			oi++
			ou += float64(in.Users)
			ot += float64(in.Toots)
		} else {
			ci++
			cu += float64(in.Users)
			ct += float64(in.Toots)
		}
	}
	ti, tu, tt := oi+ci, ou+cu, ot+ct
	if ti > 0 {
		r.OpenInstancesPct, r.ClosedInstancesPct = pct(oi/ti), pct(ci/ti)
	}
	if tu > 0 {
		r.OpenUsersPct, r.ClosedUsersPct = pct(ou/tu), pct(cu/tu)
	}
	if tt > 0 {
		r.OpenTootsPct, r.ClosedTootsPct = pct(ot/tt), pct(ct/tt)
	}
	if ou > 0 {
		r.OpenTootsPerCapita = ot / ou
	}
	if cu > 0 {
		r.ClosedTootsPerCapita = ct / cu
	}
	if oi > 0 {
		r.OpenMeanUsers = ou / oi
	}
	if ci > 0 {
		r.ClosedMeanUsers = cu / ci
	}
	return r
}

// ActivityCDFs is Fig 2(c): distributions of the weekly active-user share.
type ActivityCDFs struct {
	All, Open, Closed        *stats.ECDF
	MedianOpen, MedianClosed float64
	WeeklyActiveUsersShare   float64 // fraction of users on instances ≥ once/week activity
}

// Fig2cActiveUsers computes Fig 2(c).
func Fig2cActiveUsers(w *dataset.World) ActivityCDFs {
	var all, open, closed []float64
	var activeUsers, totalUsers float64
	for i := range w.Instances {
		in := &w.Instances[i]
		all = append(all, in.MaxWeeklyActivePct)
		if in.Open {
			open = append(open, in.MaxWeeklyActivePct)
		} else {
			closed = append(closed, in.MaxWeeklyActivePct)
		}
		totalUsers += float64(in.Users)
		activeUsers += float64(in.Users) * in.MaxWeeklyActivePct / 100
	}
	r := ActivityCDFs{
		All:          stats.NewECDF(all),
		Open:         stats.NewECDF(open),
		Closed:       stats.NewECDF(closed),
		MedianOpen:   stats.Median(open),
		MedianClosed: stats.Median(closed),
	}
	if totalUsers > 0 {
		r.WeeklyActiveUsersShare = activeUsers / totalUsers
	}
	return r
}

// CategoryRow is one bar triple of Fig 3 (percentages are relative to the
// categorised subset, as in the paper).
type CategoryRow struct {
	Category     dataset.Category
	InstancesPct float64
	TootsPct     float64
	UsersPct     float64
}

// Fig3Categories computes Fig 3 and returns rows in the paper's category
// order, plus the share of instances that are categorised at all.
func Fig3Categories(w *dataset.World) (rows []CategoryRow, categorizedPct float64) {
	var catInst, catUsers, catToots map[dataset.Category]float64
	catInst = make(map[dataset.Category]float64)
	catUsers = make(map[dataset.Category]float64)
	catToots = make(map[dataset.Category]float64)
	var nCat, uCat, tCat float64
	for i := range w.Instances {
		in := &w.Instances[i]
		if !in.Categorized {
			continue
		}
		nCat++
		uCat += float64(in.Users)
		tCat += float64(in.Toots)
		for _, c := range in.Categories {
			catInst[c]++
			catUsers[c] += float64(in.Users)
			catToots[c] += float64(in.Toots)
		}
	}
	for _, c := range dataset.Categories {
		row := CategoryRow{Category: c}
		if nCat > 0 {
			row.InstancesPct = pct(catInst[c] / nCat)
		}
		if tCat > 0 {
			row.TootsPct = pct(catToots[c] / tCat)
		}
		if uCat > 0 {
			row.UsersPct = pct(catUsers[c] / uCat)
		}
		rows = append(rows, row)
	}
	return rows, pct(nCat / float64(len(w.Instances)))
}

// ActivityRow is one bar triple of Fig 4, for one activity on one side
// (prohibited or allowed).
type ActivityRow struct {
	Activity     dataset.Activity
	InstancesPct float64
	TootsPct     float64
	UsersPct     float64
}

// Fig4Activities computes both halves of Fig 4 plus the §4.2 policy
// coverage statistics.
func Fig4Activities(w *dataset.World) (prohibited, allowed []ActivityRow, allowAllPct float64) {
	type agg struct{ inst, users, toots float64 }
	proh := make(map[dataset.Activity]*agg)
	allo := make(map[dataset.Activity]*agg)
	for _, a := range dataset.Activities {
		proh[a] = &agg{}
		allo[a] = &agg{}
	}
	allowAll := 0.0
	var totalUsers, totalToots float64
	for i := range w.Instances {
		in := &w.Instances[i]
		totalUsers += float64(in.Users)
		totalToots += float64(in.Toots)
		if len(in.Prohibited) == 0 {
			allowAll++
		}
		for _, a := range in.Prohibited {
			proh[a].inst++
			proh[a].users += float64(in.Users)
			proh[a].toots += float64(in.Toots)
		}
		for _, a := range in.Allowed {
			allo[a].inst++
			allo[a].users += float64(in.Users)
			allo[a].toots += float64(in.Toots)
		}
	}
	n := float64(len(w.Instances))
	mk := func(m map[dataset.Activity]*agg) []ActivityRow {
		var rows []ActivityRow
		for _, a := range dataset.Activities {
			g := m[a]
			row := ActivityRow{Activity: a}
			if n > 0 {
				row.InstancesPct = pct(g.inst / n)
			}
			if totalUsers > 0 {
				row.UsersPct = pct(g.users / totalUsers)
			}
			if totalToots > 0 {
				row.TootsPct = pct(g.toots / totalToots)
			}
			rows = append(rows, row)
		}
		return rows
	}
	return mk(proh), mk(allo), pct(allowAll / n)
}

// HostRow is one bar triple of Fig 5 for a country or AS.
type HostRow struct {
	Name         string
	InstancesPct float64
	TootsPct     float64
	UsersPct     float64
}

// Fig5Hosting returns the top-k countries and ASes by instance count, with
// their instance/toot/user shares.
func Fig5Hosting(w *dataset.World, k int) (countries, ases []HostRow) {
	type agg struct{ inst, users, toots float64 }
	byCountry := make(map[string]*agg)
	byAS := make(map[string]*agg)
	var n, tu, tt float64
	for i := range w.Instances {
		in := &w.Instances[i]
		n++
		tu += float64(in.Users)
		tt += float64(in.Toots)
		c := byCountry[in.Country]
		if c == nil {
			c = &agg{}
			byCountry[in.Country] = c
		}
		asName := in.Country + "?"
		if as := w.ASByNumber(in.ASN); as != nil {
			asName = as.Name
		}
		a := byAS[asName]
		if a == nil {
			a = &agg{}
			byAS[asName] = a
		}
		c.inst++
		c.users += float64(in.Users)
		c.toots += float64(in.Toots)
		a.inst++
		a.users += float64(in.Users)
		a.toots += float64(in.Toots)
	}
	mk := func(m map[string]*agg) []HostRow {
		rows := make([]HostRow, 0, len(m))
		for name, g := range m {
			rows = append(rows, HostRow{
				Name:         name,
				InstancesPct: pct(g.inst / n),
				UsersPct:     pct(g.users / tu),
				TootsPct:     pct(g.toots / tt),
			})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].InstancesPct != rows[j].InstancesPct {
				return rows[i].InstancesPct > rows[j].InstancesPct
			}
			return rows[i].Name < rows[j].Name
		})
		if len(rows) > k {
			rows = rows[:k]
		}
		return rows
	}
	return mk(byCountry), mk(byAS)
}

// TopASUserShare returns the combined user share of the top-k ASes by users
// (§4.3: "the top three ASes account for almost two thirds of all users").
func TopASUserShare(w *dataset.World, k int) float64 {
	byAS := make(map[int]float64)
	var total float64
	for i := range w.Instances {
		byAS[w.Instances[i].ASN] += float64(w.Instances[i].Users)
		total += float64(w.Instances[i].Users)
	}
	shares := make([]float64, 0, len(byAS))
	for _, v := range byAS {
		shares = append(shares, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	var top float64
	for i := 0; i < k && i < len(shares); i++ {
		top += shares[i]
	}
	if total == 0 {
		return 0
	}
	return pct(top / total)
}
