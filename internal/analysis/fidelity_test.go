package analysis

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/twitter"
)

// fidelityResults computes, on w, the result every ledger figure's rows
// read, with the arguments core's experiments pass.
func fidelityResults(w *dataset.World) map[string]any {
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

// Every ledger row has a unique id under its figure, a tolerance, and
// reads a finite value off its figure's result; every printed line renders
// without a format error; and no figure is both in the ledger and named as
// having no paper value.
func TestFidelityLedger(t *testing.T) {
	res := fidelityResults(smallWorld(t))
	seen := map[string]bool{}
	for _, row := range Ledger {
		if seen[row.ID] || !strings.HasPrefix(row.ID, row.Figure+".") {
			t.Errorf("row %q of %s: ids must be unique and start with the figure", row.ID, row.Figure)
		}
		seen[row.ID] = true
		if row.Tol < 0 || math.IsNaN(row.Paper) {
			t.Errorf("row %s: paper %g, tolerance %g", row.ID, row.Paper, row.Tol)
		}
		r, ok := res[row.Figure]
		if !ok {
			t.Fatalf("row %s: no result for figure %s", row.ID, row.Figure)
		}
		if v := row.Ours(r); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("row %s reads %g", row.ID, v)
		}
		if slices.Contains(NoPaperValue, row.Figure) {
			t.Errorf("row %s: figure %s is also listed as having no paper value", row.ID, row.Figure)
		}
	}
	for _, l := range ledgerLines {
		if l.format == "" {
			continue
		}
		for _, row := range l.rows[1:] {
			if row.Figure != l.rows[0].Figure {
				t.Errorf("line %q mixes figures %s and %s", l.format, l.rows[0].Figure, row.Figure)
			}
		}
	}
	for fig, r := range res {
		var b strings.Builder
		if err := WriteFidelity(&b, fig, r); err != nil || strings.Contains(b.String(), "%!") {
			t.Errorf("%s renders %q, %v", fig, b.String(), err)
		}
	}
}
