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
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/profile"
)

func main() { os.Exit(realMain()) }

// realMain returns the exit code instead of calling os.Exit directly, so
// the deferred profile writers always run.
func realMain() int {
	scale := flag.String("scale", "small", "world scale when generating: tiny | small | paper")
	seed := flag.Uint64("seed", 1, "generator seed")
	worldFile := flag.String("world", "", "load a world file instead of generating")
	run := flag.String("run", "", "comma-separated experiment ids (default: all); see -list")
	list := flag.Bool("list", false, "list experiment ids and exit")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start("fedibench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedibench:", err)
		return 2
	}
	defer stop()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var w *dataset.World
	if *worldFile != "" {
		w, err = dataset.LoadFile(*worldFile)
	} else {
		w, err = core.BuildWorld(core.Scale(*scale), *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedibench:", err)
		return 2
	}

	if *run == "" {
		if err := core.RunAll(w, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fedibench:", err)
			return 1
		}
		return 0
	}
	for _, id := range strings.Split(*run, ",") {
		e, err := core.Find(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedibench:", err)
			return 2
		}
		fmt.Printf("==== %s — %s\n", e.ID, e.Title)
		if err := e.Run(w, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fedibench:", err)
			return 1
		}
		fmt.Println()
	}
	return 0
}
