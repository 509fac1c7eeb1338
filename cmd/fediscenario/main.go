// Command fediscenario lists and runs the declarative campaign scenarios
// of internal/simnet/scenario — outage storms, churn during crawl, live
// replication, incremental recrawls, byzantine chaos storms against the
// hardened crawler, the DHT directory raced against a centralised registry
// — and emits their deterministic JSON reports.
//
// Usage:
//
//	fediscenario -list                      # scenario names and titles
//	fediscenario                            # run everything, reports to stdout
//	fediscenario -run outage-storm          # one scenario
//	fediscenario -run chaos-storm           # byzantine faults vs the breaker
//	fediscenario -run dht-churn             # decentralised directory vs registry
//	fediscenario -out reports/              # write <name>.json per scenario
//	fediscenario -seed 99 -run churn-during-crawl
//
// Reports are byte-reproducible for a given scenario and seed; CI archives
// them as workflow artifacts. The exit code is 0 when every scenario's own
// assertions pass, 1 when any fail (the report records the failure), 2 on
// usage or I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/profile"
	"repro/internal/simnet/scenario"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command, writing only to stdout and stderr; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fediscenario", flag.ContinueOnError)
	list := fs.Bool("list", false, "list scenario names and exit")
	runNames := fs.String("run", "", "comma-separated scenario names (default: all)")
	seed := fs.Uint64("seed", 0, "seed override (0 = each scenario's default seed)")
	out := fs.String("out", "", "directory for per-scenario <name>.json reports (default: stdout)")
	stop, code := profile.Parse(fs, args, stderr)
	if stop == nil {
		return code
	}
	defer stop()

	if *list {
		for _, name := range scenario.Names() {
			sc, err := scenario.ByName(name, 0)
			if err != nil {
				fmt.Fprintln(stderr, "fediscenario:", err)
				return 2
			}
			fmt.Fprintf(stdout, "%-20s %s\n", name, sc.Title)
		}
		return 0
	}

	names := scenario.Names()
	if *runNames != "" {
		names = strings.Split(*runNames, ",")
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "fediscenario:", err)
			return 2
		}
	}

	exit := 0
	for _, name := range names {
		sc, err := scenario.ByName(strings.TrimSpace(name), *seed)
		if err != nil {
			fmt.Fprintln(stderr, "fediscenario:", err)
			return 2
		}
		rep, err := sc.Run(ctx)
		if rep == nil {
			fmt.Fprintln(stderr, "fediscenario:", err)
			return 2
		}
		if err != nil {
			fmt.Fprintln(stderr, "fediscenario:", err)
			exit = 1
		}
		b, err := rep.Encode()
		if err != nil {
			fmt.Fprintln(stderr, "fediscenario:", err)
			return 2
		}
		if *out == "" {
			stdout.Write(b)
		} else {
			path := filepath.Join(*out, sc.Name+".json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				fmt.Fprintln(stderr, "fediscenario:", err)
				return 2
			}
			fmt.Fprintf(stdout, "%-20s passed=%v  %d metrics  -> %s\n",
				sc.Name, rep.Passed, len(rep.Metrics), path)
		}
	}
	return exit
}
