package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file covers §4.4: Fig 7 (downtime CDF), Fig 8 (daily downtime by
// size, vs Twitter), Fig 9 (certificates), Fig 10 (outage durations) and
// Table 1 (AS failures).

// DowntimeResult is Fig 7.
type DowntimeResult struct {
	Downtime *stats.ECDF // per-instance downtime fraction over its lifetime
	// Unavailability mass of failing instances (the red curves): users,
	// toots and boosted toots that become unreachable when the instance is
	// down.
	Users  *stats.ECDF
	Toots  *stats.ECDF
	Boosts *stats.ECDF

	Under5Pct       float64 // share of instances with <5% downtime
	Over50Pct       float64 // share with >50% downtime (paper: 11%)
	Excellent995Pct float64 // share up ≥99.5% of the time (paper: 4.5%)
	MeanDowntimePct float64
	TootDownCorr    float64 // Pearson(toots, downtime) (paper: -0.04)
}

// Fig7Downtime computes Fig 7 over each instance's alive window.
func Fig7Downtime(w *dataset.World) DowntimeResult {
	var downs, users, toots, boosts, tootCounts []float64
	for i := range w.Instances {
		from, to := aliveWindow(w, i)
		if to <= from {
			continue
		}
		d := w.Traces.Traces[i].DownFraction(from, to)
		downs = append(downs, d)
		tootCounts = append(tootCounts, float64(w.Instances[i].Toots))
		if len(w.Traces.Traces[i].Outages(from, to)) > 0 {
			users = append(users, float64(w.Instances[i].Users))
			toots = append(toots, float64(w.Instances[i].Toots))
			boosts = append(boosts, float64(w.Instances[i].Boosts))
		}
	}
	r := DowntimeResult{
		Downtime: stats.NewECDF(downs),
		Users:    stats.NewECDF(users),
		Toots:    stats.NewECDF(toots),
		Boosts:   stats.NewECDF(boosts),
	}
	r.Under5Pct = pct(r.Downtime.At(0.05))
	r.Over50Pct = pct(1 - r.Downtime.At(0.5))
	r.Excellent995Pct = pct(r.Downtime.At(0.005))
	r.MeanDowntimePct = pct(stats.Mean(downs))
	r.TootDownCorr = stats.Pearson(tootCounts, downs)
	return r
}

// WindowDowntime computes availability per recrawl window of a merged
// longitudinal world: bounds lists each window's first slot, ascending and
// starting at 0 (the last window runs to the end of the traces), and the
// result is the mean per-instance down fraction of each window — Fig 7's
// headline number tracked across campaign windows instead of averaged over
// one. It panics on malformed bounds, like the trace primitives it wraps.
func WindowDowntime(w *dataset.World, bounds []int) []float64 {
	slots := w.Traces.Slots()
	if len(bounds) == 0 || bounds[0] != 0 {
		panic("analysis: window bounds must start at slot 0")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] || bounds[i] >= slots {
			panic("analysis: window bounds must ascend within the trace window")
		}
	}
	out := make([]float64, len(bounds))
	for i := range bounds {
		lo, hi := bounds[i], slots
		if i+1 < len(bounds) {
			hi = bounds[i+1]
		}
		var sum float64
		for j := range w.Instances {
			sum += w.Traces.Traces[j].DownFraction(lo, hi)
		}
		if len(w.Instances) > 0 {
			sum /= float64(len(w.Instances))
		}
		out[i] = sum
	}
	return out
}

// SizeBin labels the Fig 8 toot-count bins.
type SizeBin string

// Fig 8 bins.
const (
	BinUnder10K SizeBin = "<10K"
	Bin10K100K  SizeBin = "10K-100K"
	Bin100K1M   SizeBin = "100K-1M"
	BinOver1M   SizeBin = ">1M"
)

func binOf(toots int64) SizeBin {
	switch {
	case toots < 10_000:
		return BinUnder10K
	case toots < 100_000:
		return Bin10K100K
	case toots < 1_000_000:
		return Bin100K1M
	default:
		return BinOver1M
	}
}

// DailyDowntimeResult is Fig 8: box statistics of per-day downtime for each
// Mastodon size bin, all of Mastodon, and the Twitter 2007 baseline.
type DailyDowntimeResult struct {
	Bins         map[SizeBin]stats.Box
	BinInstances map[SizeBin]int // instances contributing to each bin
	Mastodon     stats.Box
	Twitter      stats.Box
	MastodonMean float64 // mean downtime % (paper: 10.95%)
	TwitterMean  float64 // (paper: 1.25%)
}

// Fig8DailyDowntime computes Fig 8. twitterDaily is the Twitter baseline's
// per-day downtime series (see internal/twitter).
func Fig8DailyDowntime(w *dataset.World, twitterDaily []float64) DailyDowntimeResult {
	// Each alive instance-day lands once in all and once in its size bin;
	// every slice is sized before any is filled.
	days := map[SizeBin]int{}
	total := 0
	for i := range w.Instances {
		if from, to := aliveWindow(w, i); to > from {
			n := to/dataset.SlotsPerDay - from/dataset.SlotsPerDay
			days[binOf(w.Instances[i].Toots)] += n
			total += n
		}
	}
	perBin := make(map[SizeBin][]float64, len(days))
	for b, n := range days {
		perBin[b] = make([]float64, 0, n)
	}
	binInsts := map[SizeBin]int{}
	all := make([]float64, 0, total)
	for i := range w.Instances {
		from, to := aliveWindow(w, i)
		if to <= from {
			continue
		}
		b := binOf(w.Instances[i].Toots)
		start := len(all)
		all = w.Traces.AppendDailyDowntime(all, int32(i), from/dataset.SlotsPerDay, to/dataset.SlotsPerDay)
		perBin[b] = append(perBin[b], all[start:]...)
		binInsts[b]++
	}
	r := DailyDowntimeResult{
		Bins:         make(map[SizeBin]stats.Box, 4),
		BinInstances: binInsts,
		Mastodon:     stats.NewBox(all),
		Twitter:      stats.NewBox(twitterDaily),
	}
	for _, b := range []SizeBin{BinUnder10K, Bin10K100K, Bin100K1M, BinOver1M} {
		r.Bins[b] = stats.NewBox(perBin[b])
	}
	r.MastodonMean = pct(stats.Mean(all))
	r.TwitterMean = pct(stats.Mean(twitterDaily))
	return r
}

// CARow is one bar of Fig 9(a).
type CARow struct {
	CA           string
	InstancesPct float64
}

// Fig9aCAFootprint returns certificate-authority shares, largest first.
func Fig9aCAFootprint(w *dataset.World) []CARow {
	counts := map[string]float64{}
	for i := range w.Instances {
		counts[w.Instances[i].CA]++
	}
	rows := make([]CARow, 0, len(counts))
	for ca, c := range counts {
		rows = append(rows, CARow{CA: ca, InstancesPct: pct(c / float64(len(w.Instances)))})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].InstancesPct != rows[j].InstancesPct {
			return rows[i].InstancesPct > rows[j].InstancesPct
		}
		return rows[i].CA < rows[j].CA
	})
	return rows
}

// CertOutageResult is Fig 9(b): instances down per day due to certificate
// expiry, detected by matching outage starts against each instance's
// renewal schedule (not read from generator ground truth).
type CertOutageResult struct {
	PerDay       []int // instances newly down on day d due to cert expiry
	WorstDay     int   // day with the most cert-expiry outages
	WorstCount   int
	CertSharePct float64 // share of major (≥1 day) outages attributed to certs (paper: 6.3%)
}

// Fig9bCertOutages computes Fig 9(b). renewEvery is the certificate
// lifetime in days (90 for Let's Encrypt).
func Fig9bCertOutages(w *dataset.World, renewEvery int) CertOutageResult {
	r := CertOutageResult{PerDay: make([]int, w.Days), WorstDay: -1}
	major, certMajor := 0, 0
	for i := range w.Instances {
		from, to := aliveWindow(w, i)
		outs := w.Traces.Traces[i].Outages(from, to)
		var expiry []int
		if w.Instances[i].CA == "Let's Encrypt" {
			expiry = w.Instances[i].CertExpiryDays(w.Days, renewEvery)
		}
		cert, other := sim.AttributeToCertExpiry(outs, expiry, dataset.SlotsPerDay, 6)
		for _, o := range cert {
			r.PerDay[sim.OutageStartDay(o, dataset.SlotsPerDay)]++
			if o.Slots() >= dataset.SlotsPerDay {
				major++
				certMajor++
			}
		}
		for _, o := range other {
			if o.Slots() >= dataset.SlotsPerDay {
				major++
			}
		}
	}
	for d, n := range r.PerDay {
		if n > r.WorstCount {
			r.WorstDay, r.WorstCount = d, n
		}
	}
	if major > 0 {
		r.CertSharePct = pct(float64(certMajor) / float64(major))
	}
	return r
}

// ASFailureRow is one row of Table 1.
type ASFailureRow struct {
	ASN       int
	Name      string
	Instances int
	Failures  int
	IPs       int
	Users     int
	Toots     int64
	Rank      int
	Peers     int
}

// Table1ASFailures detects AS-wide outages: for every AS hosting at least
// minInstances instances, a failure is a maximal interval during which all
// of its instances were simultaneously down (within their common alive
// window). Rows are sorted by hosted instances, descending.
func Table1ASFailures(w *dataset.World, minInstances int) []ASFailureRow {
	if minInstances < 2 {
		minInstances = 2
	}
	var rows []ASFailureRow
	for asn, ids := range w.ASInstances() {
		if len(ids) < minInstances {
			continue
		}
		lo, hi := 0, w.Days*dataset.SlotsPerDay
		users := 0
		var toots int64
		ips := make(map[string]struct{}, len(ids))
		for _, id := range ids {
			in := &w.Instances[id]
			from, to := aliveWindow(w, int(id))
			if from > lo {
				lo = from
			}
			if to < hi {
				hi = to
			}
			users += in.Users
			toots += in.Toots
			ips[in.IP] = struct{}{}
		}
		if hi <= lo {
			continue
		}
		fails := sim.GroupFailures(w.Traces, ids, lo, hi)
		if len(fails) == 0 {
			continue
		}
		row := ASFailureRow{
			ASN:       asn,
			Instances: len(ids),
			Failures:  len(fails),
			IPs:       len(ips),
			Users:     users,
			Toots:     toots,
		}
		if as := w.ASByNumber(asn); as != nil {
			row.Name = as.Name
			row.Rank = as.Rank
			row.Peers = as.Peers
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Instances != rows[j].Instances {
			return rows[i].Instances > rows[j].Instances
		}
		return rows[i].ASN < rows[j].ASN
	})
	return rows
}

// OutageDurationResult is Fig 10: the distribution of continuous outages of
// at least one day, and the population they affect.
type OutageDurationResult struct {
	Durations *stats.ECDF // days, for outages ≥ 1 day
	// Affected mass per ≥1-day outage.
	Users *stats.ECDF
	Toots *stats.ECDF

	InstancesWithDayOutagePct   float64 // share of instances with ≥1 day-long outage (paper: 25%)
	InstancesWithMonthOutagePct float64 // ≥30 days (paper: 7%)
	AnyOutagePct                float64 // share with any outage at all (paper: 98%)
}

// Fig10OutageDurations computes Fig 10.
func Fig10OutageDurations(w *dataset.World) OutageDurationResult {
	var durations, users, toots []float64
	withAny, withDay, withMonth := 0, 0, 0
	counted := 0
	for i := range w.Instances {
		from, to := aliveWindow(w, i)
		if to <= from {
			continue
		}
		counted++
		outs := w.Traces.Traces[i].Outages(from, to)
		if len(outs) > 0 {
			withAny++
		}
		day, month := false, false
		for _, o := range outs {
			d := sim.OutageDays(o, dataset.SlotsPerDay)
			if d < 1 {
				continue
			}
			durations = append(durations, d)
			users = append(users, float64(w.Instances[i].Users))
			toots = append(toots, float64(w.Instances[i].Toots))
			day = true
			if d >= 30 {
				month = true
			}
		}
		if day {
			withDay++
		}
		if month {
			withMonth++
		}
	}
	r := OutageDurationResult{
		Durations: stats.NewECDF(durations),
		Users:     stats.NewECDF(users),
		Toots:     stats.NewECDF(toots),
	}
	if counted > 0 {
		r.InstancesWithDayOutagePct = pct(float64(withDay) / float64(counted))
		r.InstancesWithMonthOutagePct = pct(float64(withMonth) / float64(counted))
		r.AnyOutagePct = pct(float64(withAny) / float64(counted))
	}
	return r
}
