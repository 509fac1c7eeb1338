// Command fedigen generates a synthetic fediverse world and writes it to a
// columnar world file for the other tools.
//
// Usage:
//
//	fedigen -config paper -seed 1 -shards 8 -out world.fedi
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/profile"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command, writing only to stdout and stderr; it returns the exit code.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedigen", flag.ContinueOnError)
	config := fs.String("config", "small", "world preset: tiny | small | paper")
	seed := fs.Uint64("seed", 1, "generator seed")
	shards := fs.Int("shards", 0, "generation shards (0 = one per CPU; output is identical for any value)")
	out := fs.String("out", "world.fedi", "output world file")
	stop, code := profile.Parse(fs, args, stderr)
	if stop == nil {
		return code
	}
	defer stop()

	cfg, err := core.ConfigForScale(core.Scale(*config), *seed)
	if err != nil {
		fmt.Fprintln(stderr, "fedigen:", err)
		return 2
	}
	cfg.Shards = *shards

	start := time.Now()
	w := gen.Generate(cfg)
	if err := w.SaveFile(*out); err != nil {
		fmt.Fprintln(stderr, "fedigen:", err)
		return 1
	}
	written := int64(-1)
	if st, err := os.Stat(*out); err == nil {
		written = st.Size()
	}
	fmt.Fprintf(stdout, "generated %d instances / %d accounts / %d toots, %d bytes written in %v → %s\n",
		len(w.Instances), len(w.Users), w.TotalToots(), written,
		time.Since(start).Round(time.Millisecond), *out)
	fmt.Fprint(stdout, core.Summary(w))
	return 0
}
