// Command fedigen generates a synthetic fediverse world and writes it to a
// columnar world file for the other tools.
//
// Usage:
//
//	fedigen -config paper -seed 1 -shards 8 -out world.fedi
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/profile"
)

func main() { os.Exit(run()) }

// run returns the exit code instead of calling os.Exit, so that the
// deferred profile writers run.
func run() int {
	config := flag.String("config", "small", "world preset: tiny | small | paper")
	seed := flag.Uint64("seed", 1, "generator seed")
	shards := flag.Int("shards", 0, "generation shards (0 = one per CPU; output is identical for any value)")
	out := flag.String("out", "world.fedi", "output world file")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start("fedigen")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedigen:", err)
		return 2
	}
	defer stop()

	cfg, err := core.ConfigForScale(core.Scale(*config), *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedigen:", err)
		return 2
	}
	cfg.Shards = *shards

	start := time.Now()
	w := gen.Generate(cfg)
	if err := w.SaveFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "fedigen:", err)
		return 1
	}
	written := int64(-1)
	if st, err := os.Stat(*out); err == nil {
		written = st.Size()
	}
	fmt.Printf("generated %d instances / %d accounts / %d toots, %d bytes written in %v → %s\n",
		len(w.Instances), len(w.Users), w.TotalToots(), written,
		time.Since(start).Round(time.Millisecond), *out)
	fmt.Print(core.Summary(w))
	return 0
}
