package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func fedibench(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("fedibench %v: exit %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// -list prints one line per experiment, in index order.
func TestList(t *testing.T) {
	var want strings.Builder
	for _, e := range core.Experiments() {
		fmt.Fprintf(&want, "%-7s %s\n", e.ID, e.Title)
	}
	if got := fedibench(t, "-list"); got != want.String() {
		t.Errorf("-list printed\n%s\nwant\n%s", got, want.String())
	}
}

// -run prints each named experiment under its header, exactly as the
// experiment writes it; no -run prints core.RunAll's report. A world file
// and the generated world it holds print the same.
func TestRun(t *testing.T) {
	w, err := core.LoadOrBuild("", core.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, id := range []string{"fig1", "tab1"} {
		e, err := core.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "==== %s — %s\n", e.ID, e.Title)
		if err := e.Run(w, &want); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&want)
	}
	if got := fedibench(t, "-scale", "tiny", "-run", "fig1, tab1"); got != want.String() {
		t.Errorf("-run fig1,tab1 printed\n%s\nwant\n%s", got, want.String())
	}

	path := filepath.Join(t.TempDir(), "w.fedi")
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var all bytes.Buffer
	if err := core.RunAll(w, &all); err != nil {
		t.Fatal(err)
	}
	if got := fedibench(t, "-world", path); got != all.String() {
		t.Errorf("the full report of the world file differs from core.RunAll's:\n%s", got)
	}
}

// -fidelity prints one line per ledger row, in ledger order: the row's id,
// its paper value, and the median and band of its values over the seeds.
// Every tiny world runs 120 days, so world.days has a band of one value,
// 120, a gap of (473 − 238.25) / 236.5 widths from the paper's 473 ± 118.25.
func TestFidelityBands(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(fedibench(t, "-fidelity", "-scale", "tiny", "-seeds", "1-3"), "\n"), "\n")
	if len(lines) != len(analysis.Ledger) {
		t.Fatalf("%d lines for %d ledger rows:\n%s", len(lines), len(analysis.Ledger), strings.Join(lines, "\n"))
	}
	for i, row := range analysis.Ledger {
		if f := strings.Fields(lines[i]); len(f) < 7 || f[0] != row.ID || f[1] != "paper" || f[3] != "median" {
			t.Errorf("line %d is %q, want row %s", i, lines[i], row.ID)
		}
	}
	if got, want := lines[len(lines)-1], "paper 473       median 120       [120, 120] gap 0.9926"; !strings.HasSuffix(got, want) {
		t.Errorf("world.days line is %q, want it to end %q", got, want)
	}
}

// The ledger at small scale over seeds 1–5 misses the paper on twelve
// rows, named here so that a row which starts or stops matching shows, and
// is too thin to judge on one. Every row has the one tolerance rule (a
// quarter of the paper's value):
//   - fig7.mean-downtime and the Mastodon and 100K–1M Fig 8 daily-downtime
//     rows sit above the paper: the small worlds are down more than the
//     paper measured;
//   - fig9b.worst-day-instances counts instances, so 1,000 of them cannot
//     reach the paper's 105 of 4,328, and fig9b.cert-share sits below;
//   - fig10.day-outage sits above, fig15.no-rep-top10-instances below;
//   - the five world.* rows hold the small preset's size against the
//     paper's counts, and so are gaps by construction; three of them are
//     also the crawl's counts read against the world's truth, and say so.
//
// fig8.over1m-daily-downtime reads a bin of 1 or 2 instances, and prints
// "thin" where it printed a gap of 0.002 widths before bins were counted.
func TestFidelitySmallGaps(t *testing.T) {
	var gaps, thin, crawled []string
	for _, line := range strings.Split(strings.TrimSuffix(fedibench(t, "-fidelity", "-scale", "small", "-seeds", "1-5"), "\n"), "\n") {
		f := strings.Fields(line)
		if slices.Contains(f, "truth-vs-crawl") {
			crawled = append(crawled, f[0])
		}
		switch f[len(f)-1] {
		case "match":
			continue
		case "thin":
			thin = append(thin, f[0])
			continue
		}
		gaps = append(gaps, f[0])
		if gap, err := strconv.ParseFloat(f[len(f)-1], 64); err != nil || f[len(f)-2] != "gap" || !(gap > 0) {
			t.Errorf("%s: verdict %q is neither match, thin nor a positive gap", f[0], strings.Join(f[len(f)-2:], " "))
		}
	}
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"with a gap", gaps, []string{
			"fig7.mean-downtime", "fig8.mastodon-daily-downtime", "fig9b.worst-day-instances", "fig9b.cert-share",
			"fig10.day-outage", "fig8.100k-1m-daily-downtime", "fig15.no-rep-top10-instances",
			"world.instances", "world.accounts", "world.tooting-accounts", "world.follows", "world.days",
		}},
		{"too thin to judge", thin, []string{"fig8.over1m-daily-downtime"}},
		{"of a crawl against truth", crawled, []string{"world.accounts", "world.tooting-accounts", "world.follows"}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("rows %s at small, seeds 1-5:\n  %s\nwant\n  %s", tc.what, strings.Join(tc.got, "\n  "), strings.Join(tc.want, "\n  "))
		}
	}
}

// A bad invocation exits 2 and says why on stderr; -h prints the flags and
// exits 0.
func TestBadInvocation(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
		want string // on stderr
	}{
		{[]string{"-h"}, 0, "-list"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-cpuprofile", filepath.Join(dir, "no", "cpu")}, 2, "fedibench: "},
		{[]string{"-scale", "galactic"}, 2, "fedibench: core: unknown scale"},
		{[]string{"-world", filepath.Join(dir, "missing.fedi")}, 2, "fedibench: "},
		{[]string{"-scale", "tiny", "-run", "fig99"}, 2, "fedibench: "},
		{[]string{"-fidelity", "-seeds", "3-1"}, 2, "fedibench: bad -seeds"},
		{[]string{"-fidelity", "-seeds", "1-x"}, 2, "fedibench: bad -seeds"},
		{[]string{"-fidelity", "-scale", "galactic"}, 2, "fedibench: core: unknown scale"},
		{[]string{"-fidelity", "-world", filepath.Join(dir, "w.fedi")}, 2, "fedibench: -fidelity"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("fedibench %v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}
