// Command fedibench runs the paper's experiments against a world and prints
// paper-style tables and series — one section per table/figure of the
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	fedibench -scale small                # generate and run everything
//	fedibench -world world.fedi -run fig12,tab1
//	fedibench -fidelity -seeds 1-20 -scale small  # every paper value beside its seed band
//	fedibench -fidelity -seeds 1-3 -scale small,paper  # each row's band at both scales
//	fedibench -cpuprofile cpu.out -memprofile mem.out -trace trace.out -run fig12
//
// The profile flags (internal/profile, on every command) snapshot pprof
// data and an execution trace over the run, so a codec or sweep regression
// can be diagnosed from a production-shaped workload without editing code:
// `go tool pprof cpu.out`, `go tool trace trace.out`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/profile"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command, writing only to stdout and stderr; it returns the exit code.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedibench", flag.ContinueOnError)
	scale := fs.String("scale", "small", "world scale when generating: tiny | small | paper; -fidelity takes a comma list")
	seed := fs.Uint64("seed", 1, "generator seed")
	worldFile := fs.String("world", "", "load a world file instead of generating")
	runIDs := fs.String("run", "", "comma-separated experiment ids (default: all); see -list")
	list := fs.Bool("list", false, "list experiment ids and exit")
	fidelity := fs.Bool("fidelity", false, "print every ledger row's paper value beside its band over -seeds, and exit")
	seedRange := fs.String("seeds", "", "-fidelity's seeds: n or first-last (default: -seed)")
	stop, code := profile.Parse(fs, args, stderr)
	if stop == nil {
		return code
	}
	defer stop()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-7s %s\n", e.ID, e.Title)
		}
		return 0
	}
	scales := strings.Split(*scale, ",")
	if *fidelity {
		if *worldFile != "" {
			fmt.Fprintln(stderr, "fedibench: -fidelity generates its worlds; it takes no -world")
			return 2
		}
		seeds, err := parseSeeds(*seedRange, *seed)
		switch {
		case err != nil:
		case len(scales) == 1:
			err = writeBands(stdout, core.Scale(*scale), seeds)
		default:
			err = writeScaleBands(stdout, scales, seeds)
		}
		if err != nil {
			fmt.Fprintln(stderr, "fedibench:", err)
			return 2
		}
		return 0
	}
	if len(scales) > 1 {
		fmt.Fprintln(stderr, "fedibench: a -scale list needs -fidelity")
		return 2
	}

	w, err := core.LoadOrBuild(*worldFile, core.Scale(*scale), *seed)
	if err != nil {
		fmt.Fprintln(stderr, "fedibench:", err)
		return 2
	}

	if *runIDs == "" {
		if err := core.RunAll(w, stdout); err != nil {
			fmt.Fprintln(stderr, "fedibench:", err)
			return 1
		}
		return 0
	}
	for _, id := range strings.Split(*runIDs, ",") {
		e, err := core.Find(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(stderr, "fedibench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "==== %s — %s\n", e.ID, e.Title)
		if err := e.Run(w, stdout); err != nil {
			fmt.Fprintln(stderr, "fedibench:", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// maxSeeds bounds a -seeds range.
const maxSeeds = 1000

// parseSeeds reads -seeds: one seed n, or the range first-last; empty
// means def alone.
func parseSeeds(s string, def uint64) ([]uint64, error) {
	if s == "" {
		return []uint64{def}, nil
	}
	lo, hi, isRange := strings.Cut(s, "-")
	first, err := strconv.ParseUint(lo, 10, 64)
	last := first
	if err == nil && isRange {
		last, err = strconv.ParseUint(hi, 10, 64)
	}
	if err != nil || last < first || last-first >= maxSeeds {
		return nil, fmt.Errorf("bad -seeds %q: want n or first-last, at most %d seeds", s, maxSeeds)
	}
	seeds := make([]uint64, 0, last-first+1)
	for sd := first; sd <= last; sd++ {
		seeds = append(seeds, sd)
	}
	return seeds, nil
}

// ledgerValues generates one world at scale per seed and reads every
// ledger row off each: vals[i] are row i's values, and bins[i] the
// instance counts of its size bin when it reads one.
func ledgerValues(scale core.Scale, seeds []uint64) (vals, bins [][]float64, _ error) {
	vals = make([][]float64, len(analysis.Ledger))
	bins = make([][]float64, len(analysis.Ledger))
	for _, seed := range seeds {
		w, err := core.LoadOrBuild("", scale, seed)
		if err != nil {
			return nil, nil, err
		}
		res := analysis.LedgerResults(w)
		for i, row := range analysis.Ledger {
			vals[i] = append(vals[i], row.Ours(res[row.Figure]))
			if n, ok := row.BinInstances(res[row.Figure]); ok {
				bins[i] = append(bins[i], float64(n))
			}
		}
	}
	return vals, bins, nil
}

// writeBands prints a line a ledger row over the seeds' worlds at scale:
// its id, the paper value, the median and [min, max] band of its values,
// and its verdict, "match" or the gap in widths of the band widened by the
// row's tolerance. A row read over one size bin also prints the [min, max]
// of the bin's instance count, and "thin", not a verdict, when some world's
// bin holds fewer than analysis.ThinBin; a row whose paper value is a
// crawl's count (Crawled) prints "truth-vs-crawl" before its verdict.
func writeBands(out io.Writer, scale core.Scale, seeds []uint64) error {
	vals, bins, err := ledgerValues(scale, seeds)
	if err != nil {
		return err
	}
	for i, row := range analysis.Ledger {
		b := analysis.NewBand(vals[i])
		verdict := "match"
		if gap := analysis.Gap(row.Paper, row.Tol(), b); gap > 0 {
			verdict = "gap " + num(gap)
		}
		if row.Crawled() {
			verdict = "truth-vs-crawl " + verdict
		}
		if len(bins[i]) > 0 {
			n := analysis.NewBand(bins[i])
			if n.Min < analysis.ThinBin {
				verdict = "thin"
			}
			verdict = fmt.Sprintf("instances [%s, %s] %s", num(n.Min), num(n.Max), verdict)
		}
		fmt.Fprintf(out, "%-34s paper %-9s median %-9s [%s, %s] %s\n",
			row.ID, num(row.Paper), num(b.Median), num(b.Min), num(b.Max), verdict)
	}
	return nil
}

// writeScaleBands prints a line a ledger row: its id, the paper value, and
// at each scale its median and [min, max] band over the seeds' worlds,
// then "scale-dependent" when two of the bands do not overlap.
func writeScaleBands(out io.Writer, scales []string, seeds []uint64) error {
	for _, scale := range scales { // a typo in the last scale fails before the first's worlds
		if _, err := core.ConfigForScale(core.Scale(scale), 0); err != nil {
			return err
		}
	}
	bands := make([][]analysis.Band, len(analysis.Ledger))
	for _, scale := range scales {
		vals, _, err := ledgerValues(core.Scale(scale), seeds)
		if err != nil {
			return err
		}
		for i := range bands {
			bands[i] = append(bands[i], analysis.NewBand(vals[i]))
		}
	}
	for i, row := range analysis.Ledger {
		line := fmt.Sprintf("%-34s paper %-9s", row.ID, num(row.Paper))
		lo, hi := math.Inf(-1), math.Inf(1)
		for k, b := range bands[i] {
			line += fmt.Sprintf(" %s median %-9s [%s, %s]", scales[k], num(b.Median), num(b.Min), num(b.Max))
			lo, hi = max(lo, b.Min), min(hi, b.Max)
		}
		if lo > hi {
			line += " scale-dependent"
		}
		fmt.Fprintln(out, line)
	}
	return nil
}

// num prints a ledger value to four significant digits, or whole when it
// is a count of ten thousand or more.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
