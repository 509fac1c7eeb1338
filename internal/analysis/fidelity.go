package analysis

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/stats"
	"repro/internal/twitter"
)

// Fidelity is one value the paper reports, beside the value this
// reproduction reads off the same experiment. Together the rows are the
// ledger: what the reproduction claims to match, and how closely.
type Fidelity struct {
	ID     string // "<figure>.<quantity>", unique
	Figure string // the experiment whose result Ours reads; "world" reads the *dataset.World itself
	// Paper is the paper's value, in the unit Ours returns.
	Paper float64
	// Ours reads the value off the figure's result: the struct its
	// analysis function returns, or the one number core prints for
	// fig3, fig4 and fig5.
	Ours func(res any) float64
}

// ours adapts a reader of one result type to Fidelity.Ours.
func ours[R any](read func(R) float64) func(any) float64 {
	return func(res any) float64 { return read(res.(R)) }
}

func scalar(v float64) float64 { return v }

// sweepAt reads series (ranking, strategy) after k removals, or NaN when
// the sweep is shorter.
func sweepAt(sweeps []AvailabilitySeries, ranking, strategy string, k int) float64 {
	for _, s := range sweeps {
		if s.Ranking == ranking && s.Strategy == strategy && k < len(s.Values) {
			return s.Values[k]
		}
	}
	return math.NaN()
}

// ledgerLines holds the ledger in report order. A line with a format is
// printed by WriteFidelity: the format takes its rows' values, then their
// paper values. Rows with no format are the paper values the report does
// not print: the anchors of analysis_test.go and the dataset counts of
// gen/config.go.
var ledgerLines = []struct {
	format string
	rows   []Fidelity
}{
	{"top-5%% instances hold %.1f%% of users, %.1f%% of toots (paper: %g%% / %g%%)\n", []Fidelity{
		{"fig2a.top5-users", "fig2a", 90.6, ours(func(r OpenClosedCDFs) float64 { return r.Top5UserPct })},
		{"fig2a.top5-toots", "fig2a", 94.8, ours(func(r OpenClosedCDFs) float64 { return r.Top5TootPct })},
	}},
	{"median active users: open %.0f%%, closed %.0f%% (paper: %g%% / %g%%)\n", []Fidelity{
		{"fig2c.median-active-open", "fig2c", 50, ours(func(r ActivityCDFs) float64 { return r.MedianOpen })},
		{"fig2c.median-active-closed", "fig2c", 75, ours(func(r ActivityCDFs) float64 { return r.MedianClosed })},
	}},
	{"categorised instances: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig3.categorised", "fig3", 16.1, ours(scalar)},
	}},
	{"instances allowing all activities: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig4.allow-all", "fig4", 17.5, ours(scalar)},
	}},
	{"top-3 ASes hold %.1f%% of users (paper: %g%%)\n", []Fidelity{
		{"fig5.top3-as-users", "fig5", 62, ours(scalar)},
	}},
	{"same-country federated links: %.1[1]f%% (paper: %[3]g%%); top-5-country links: %.1[2]f%% (paper: %[4]g%%)\n", []Fidelity{
		{"fig6.same-country-links", "fig6", 32, ours(func(r CountryFlowResult) float64 { return r.SameCountryPct })},
		{"fig6.top5-country-links", "fig6", 93.7, ours(func(r CountryFlowResult) float64 { return r.Top5CountryLink })},
	}},
	{"<5%% downtime: %.1f%% of instances (paper: ≈%g%%)\n", []Fidelity{
		{"fig7.under5-downtime", "fig7", 50, ours(func(r DowntimeResult) float64 { return r.Under5Pct })},
	}},
	{">50%% downtime: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig7.over50-downtime", "fig7", 11, ours(func(r DowntimeResult) float64 { return r.Over50Pct })},
	}},
	{"≥99.5%% uptime: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig7.uptime-995", "fig7", 4.5, ours(func(r DowntimeResult) float64 { return r.Excellent995Pct })},
	}},
	{"mean downtime: %.2f%% (paper: %g%%)\n", []Fidelity{
		{"fig7.mean-downtime", "fig7", 10.95, ours(func(r DowntimeResult) float64 { return r.MeanDowntimePct })},
	}},
	{"corr(toots, downtime) = %.3f (paper: %g)\n", []Fidelity{
		{"fig7.toot-downtime-corr", "fig7", -0.04, ours(func(r DowntimeResult) float64 { return r.TootDownCorr })},
	}},
	{"mean daily downtime: Mastodon %.2f%% vs Twitter %.2f%% (paper: %g%% vs %g%%)\n", []Fidelity{
		{"fig8.mastodon-daily-downtime", "fig8", 10.95, ours(func(r DailyDowntimeResult) float64 { return r.MastodonMean })},
		{"fig8.twitter-daily-downtime", "fig8", 1.25, ours(func(r DailyDowntimeResult) float64 { return r.TwitterMean })},
	}},
	// core prints "worst day: <date> with " before this line.
	{"%.0f instances down on certificate expiry (paper: %g on 2018-07-23)\n", []Fidelity{
		{"fig9b.worst-day-instances", "fig9b", 105, ours(func(r CertOutageResult) float64 { return float64(r.WorstCount) })},
	}},
	{"share of ≥1-day outages caused by cert expiry: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig9b.cert-share", "fig9b", 6.3, ours(func(r CertOutageResult) float64 { return r.CertSharePct })},
	}},
	{"instances with any outage: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig10.any-outage", "fig10", 98, ours(func(r OutageDurationResult) float64 { return r.AnyOutagePct })},
	}},
	{"instances with ≥1-day outage: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig10.day-outage", "fig10", 25, ours(func(r OutageDurationResult) float64 { return r.InstancesWithDayOutagePct })},
	}},
	{"instances with ≥1-month outage: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig10.month-outage", "fig10", 7, ours(func(r OutageDurationResult) float64 { return r.InstancesWithMonthOutagePct })},
	}},
	{"instances producing <10%% of their own timeline: %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig14.under10-home-share", "fig14", 78, ours(func(r HomeRemoteResult) float64 { return r.Under10Pct })},
	}},
	{"pure consumers (no home toots): %.1f%% (paper: %g%%)\n", []Fidelity{
		{"fig14.pure-consumers", "fig14", 5, ours(func(r HomeRemoteResult) float64 { return r.PureConsumersPct })},
	}},
	{"corr(toots generated, toots replicated out) = %.2f (paper: %g)\n", []Fidelity{
		{"fig14.generation-replication-corr", "fig14", 0.97, ours(func(r HomeRemoteResult) float64 { return r.GenerationReplicationCorr })},
	}},
	{"toots with no replica under S-Rep: %.1[1]f%% (paper: %[3]g%%); with >10 replicas: %.1[2]f%% (paper: %[4]g%%)\n", []Fidelity{
		{"fig16.no-replica-toots", "fig16", 9.7, ours(func(r RandomReplicationResult) float64 { return r.NoReplicaTootPct })},
		{"fig16.over10-replica-toots", "fig16", 23, ours(func(r RandomReplicationResult) float64 { return r.Over10ReplicaTootPct })},
	}},
	{"", []Fidelity{
		{"fig8.over1m-daily-downtime", "fig8", 2.1, ours(func(r DailyDowntimeResult) float64 { return 100 * r.Bins[BinOver1M].Mean })},
		{"fig8.100k-1m-daily-downtime", "fig8", 0.34, ours(func(r DailyDowntimeResult) float64 { return 100 * r.Bins[Bin100K1M].Mean })},
		{"fig15.no-rep-top10-instances", "fig15", 37.3, ours(func(r ReplicationResult) float64 {
			return sweepAt(r.InstanceSweeps, "by Toots Posted", "No-Rep", 10)
		})},
		{"fig15.s-rep-top10-instances", "fig15", 97.9, ours(func(r ReplicationResult) float64 {
			return sweepAt(r.InstanceSweeps, "by Toots Posted", "S-Rep", 10)
		})},
		{"fig15.no-rep-top10-ases", "fig15", 9.9, ours(func(r ReplicationResult) float64 {
			return sweepAt(r.ASSweeps, "by Toots Posted", "No-Rep", 10)
		})},
		{"world.instances", "world", 4328, ours(func(w *dataset.World) float64 { return float64(len(w.Instances)) })},
		{"world.accounts", "world", 853_000, ours(func(w *dataset.World) float64 { return float64(len(w.Users)) })},
		{"world.tooting-accounts", "world", 239_000, ours(func(w *dataset.World) float64 {
			n := 0
			for i := range w.Users {
				if w.Users[i].Toots > 0 {
					n++
				}
			}
			return float64(n)
		})},
		{"world.follows", "world", 9_250_000, ours(func(w *dataset.World) float64 { return float64(w.Social.NumEdges()) })},
		{"world.days", "world", 473, ours(func(w *dataset.World) float64 { return float64(w.Days) })},
	}},
}

// Ledger is every row of ledgerLines, in order.
var Ledger = func() []Fidelity {
	var rows []Fidelity
	for _, l := range ledgerLines {
		rows = append(rows, l.rows...)
	}
	return rows
}()

// Tol is how far from Paper a value may sit and still match, by the
// ledger's one tolerance rule: a quarter of the paper's value, and never
// less than one unit in the last digit the ledger writes that value with.
// The unit is the floor for a value near zero such as a correlation:
// -0.04 matches [-0.05, -0.03], so that neither 0 nor the value with its
// sign flipped does. Under the rule a row matches a value between 0.75
// and 1.25 times the paper's, and so neither 0 nor twice the paper's
// value (TestLedgerRowsCanFail).
func (f Fidelity) Tol() float64 {
	digits := strconv.FormatFloat(f.Paper, 'f', -1, 64)
	unit := 1.0
	if dot := strings.IndexByte(digits, '.'); dot >= 0 {
		unit = math.Pow(10, -float64(len(digits)-dot-1))
	}
	return max(unit, math.Abs(f.Paper)/4)
}

// LedgerResults computes, on w, the result every ledger figure's rows read,
// with the arguments core's experiments pass.
func LedgerResults(w *dataset.World) map[string]any {
	_, categorised := Fig3Categories(w)
	_, _, allowAll := Fig4Activities(w)
	tw := twitter.DailyDowntime(twitter.Uptime(twitter.DefaultUptimeConfig(w.Seed, w.Days)), dataset.SlotsPerDay)
	exp := replication.New(w)
	topInst := min(100, len(w.Instances)/4)
	return map[string]any{
		"fig2a": Fig2aOpenClosedCDF(w),
		"fig2c": Fig2cActiveUsers(w),
		"fig3":  categorised,
		"fig4":  allowAll,
		"fig5":  TopASUserShare(w, 3),
		"fig6":  Fig6CountryFlows(w, 5),
		"fig7":  Fig7Downtime(w),
		"fig8":  Fig8DailyDowntime(w, tw),
		"fig9b": Fig9bCertOutages(w, 90),
		"fig10": Fig10OutageDurations(w),
		"fig14": Fig14HomeRemote(w),
		"fig15": Fig15Replication(w, exp, topInst, 20),
		"fig16": Fig16RandomReplication(w, exp, topInst, 20, []int{1}),
		"world": w,
	}
}

// Band is a ledger row's values over several worlds: their median and
// their range.
type Band struct{ Median, Min, Max float64 }

// NewBand returns the band of vals, which must not be empty.
func NewBand(vals []float64) Band {
	return Band{stats.Median(vals), slices.Min(vals), slices.Max(vals)}
}

// Gap is a row's verdict on band b: 0 when paper lies inside b widened by
// tol on each side (the row matches), else how far outside the widened band
// paper lies, in widths of that band (+Inf when it has no width).
func Gap(paper, tol float64, b Band) float64 {
	lo, hi := b.Min-tol, b.Max+tol
	switch {
	case paper < lo:
		return (lo - paper) / (hi - lo)
	case paper > hi:
		return (paper - hi) / (hi - lo)
	}
	return 0
}

// NoPaperValue names the experiments the ledger has no row for: the
// repository holds no value the paper reports for them, and the ledger
// invents none.
var NoPaperValue = []string{"fig1", "fig2b", "fig9a", "fig11", "tab1", "tab2", "fig12", "fig13a", "fig13b",
	"ext-blocking", "ext-capacity", "ext-dht"}

// WriteFidelity prints the report lines of figure's ledger rows, each row's
// value read off res, the figure's result.
func WriteFidelity(out io.Writer, figure string, res any) error {
	for _, l := range ledgerLines {
		if l.format == "" || l.rows[0].Figure != figure {
			continue
		}
		args := make([]any, 0, 2*len(l.rows))
		for _, r := range l.rows {
			args = append(args, r.Ours(res))
		}
		for _, r := range l.rows {
			args = append(args, r.Paper)
		}
		if _, err := fmt.Fprintf(out, l.format, args...); err != nil {
			return err
		}
	}
	return nil
}
