package analysis

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// Every ledger row has a unique id under its figure, a tolerance, and
// reads a finite value off its figure's result; every printed line renders
// without a format error; and no figure is both in the ledger and named as
// having no paper value.
func TestFidelityLedger(t *testing.T) {
	res := LedgerResults(smallWorld(t))
	seen := map[string]bool{}
	for _, row := range Ledger {
		if seen[row.ID] || !strings.HasPrefix(row.ID, row.Figure+".") {
			t.Errorf("row %q of %s: ids must be unique and start with the figure", row.ID, row.Figure)
		}
		seen[row.ID] = true
		if !(row.Tol() > 0) || math.IsNaN(row.Paper) {
			t.Errorf("row %s: paper %g, tolerance %g", row.ID, row.Paper, row.Tol())
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

// A row matches when the paper value lies in its band widened by the
// tolerance, edges included; otherwise the gap is the distance to the
// widened band in widths of it, on either side.
func TestGap(t *testing.T) {
	for _, tc := range []struct {
		paper, tol float64
		band       Band
		want       float64
	}{
		{5, 0, Band{5, 4, 6}, 0},                       // inside
		{4, 0, Band{5, 4, 6}, 0},                       // on the lower edge
		{8, 2, Band{5, 4, 6}, 0},                       // on the widened upper edge
		{1, 1, Band{5, 4, 6}, 0.5},                     // widened to [3, 7]: 2 below, width 4
		{15, 1, Band{5, 4, 6}, 2},                      // 8 above [3, 7]
		{12, 2, Band{10, 10, 10}, 0},                   // one seed, inside its tolerance
		{14, 2, Band{10, 10, 10}, 0.5},                 // [8, 12]: 2 above, width 4
		{4328, 0, Band{1000, 1000, 1000}, math.Inf(1)}, // no width, outside
		{1000, 0, Band{1000, 1000, 1000}, 0},           // no width, on it
	} {
		if got := Gap(tc.paper, tc.tol, tc.band); got != tc.want {
			t.Errorf("Gap(%g, %g, %+v) = %g, want %g", tc.paper, tc.tol, tc.band, got, tc.want)
		}
	}
	if b := NewBand([]float64{3, 1, 2, 10}); b != (Band{2.5, 1, 10}) {
		t.Errorf("NewBand = %+v, want median 2.5 over [1, 10]", b)
	}
}

// Every row's verdict can fail: with its reader swapped for one that reads
// 0, twice the paper's value, or the paper's value with its sign flipped
// (what a wrong sign would read near zero), the row is a gap. No row is
// exempt.
func TestLedgerRowsCanFail(t *testing.T) {
	for _, row := range Ledger {
		for _, wrong := range []float64{0, 2 * row.Paper, -row.Paper} {
			row.Ours = func(any) float64 { return wrong }
			if gap := Gap(row.Paper, row.Tol(), NewBand([]float64{row.Ours(nil)})); !(gap > 0) {
				t.Errorf("row %s (paper %g, tolerance %g) matches a reader of %g", row.ID, row.Paper, row.Tol(), wrong)
			}
		}
	}
}

// The rule is a quarter of the paper's value, floored at one unit in the
// value's last written digit.
func TestTolerance(t *testing.T) {
	for paper, want := range map[float64]float64{90.6: 22.65, -0.04: 0.01, 0.34: 0.085, 4328: 1082, 2: 1, 0.002: 0.001} {
		if got := (Fidelity{Paper: paper}).Tol(); math.Abs(got-want) > 1e-12 {
			t.Errorf("Tol of paper value %g = %g, want %g", paper, got, want)
		}
	}
}
