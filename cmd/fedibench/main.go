// Command fedibench runs the paper's experiments against a world and prints
// paper-style tables and series — one section per table/figure of the
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	fedibench -scale small                # generate and run everything
//	fedibench -world world.fedi -run fig12,tab1
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
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command, writing only to stdout and stderr; it returns the exit code.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedibench", flag.ContinueOnError)
	scale := fs.String("scale", "small", "world scale when generating: tiny | small | paper")
	seed := fs.Uint64("seed", 1, "generator seed")
	worldFile := fs.String("world", "", "load a world file instead of generating")
	runIDs := fs.String("run", "", "comma-separated experiment ids (default: all); see -list")
	list := fs.Bool("list", false, "list experiment ids and exit")
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
