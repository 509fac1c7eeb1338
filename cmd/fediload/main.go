// Command fediload drives a fediserve network with production-shaped load
// and reports tail latency: open-loop Poisson arrivals at a target rate,
// domain/timeline popularity Zipf-sampled from the world (§4's
// concentration), keep-alive connections, conditional GET revalidation,
// and an HDR-style latency histogram behind the p50/p99/p999 report.
//
// With no -target it serves the world itself on a loopback TCP listener,
// so one command measures the whole serving path:
//
//	fediload -scale tiny -seed 1 -rate 2000 -duration 5s
//	fediload -world world.fedi -target http://127.0.0.1:8080 -json report.json
//
// The same seed always produces the same request sequence.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/loadgen"
	"repro/internal/profile"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command, writing only to stdout and stderr; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fediload", flag.ContinueOnError)
	scale := fs.String("scale", "tiny", "world scale when generating: tiny | small | paper")
	seed := fs.Uint64("seed", 1, "generator seed; also drives the request plan")
	worldFile := fs.String("world", "", "load a world file instead of generating")
	target := fs.String("target", "", "base URL of a running fediserve (empty = self-serve on a loopback listener)")
	rate := fs.Float64("rate", 1000, "target open-loop arrival rate, requests/second")
	duration := fs.Duration("duration", 5*time.Second, "load window (ignored when -count is set)")
	count := fs.Int("count", 0, "exact request count (0 = rate*duration)")
	workers := fs.Int("workers", 16, "request workers (keep-alive connections)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	maxToots := fs.Int("max-toots", 10, "self-serve: toot objects materialised per user")
	jsonOut := fs.String("json", "", "write the JSON report here ('-' = stdout)")
	stop, code := profile.Parse(fs, args, stderr)
	if stop == nil {
		return code
	}
	defer stop()
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fediload:", err)
		return 1
	}

	w, err := core.LoadOrBuild(*worldFile, core.Scale(*scale), *seed)
	if err != nil {
		return fail(err)
	}

	plan, err := loadgen.BuildPlan(w, loadgen.Config{
		Seed:     *seed,
		Rate:     *rate,
		Duration: *duration,
		Count:    *count,
	})
	if err != nil {
		return fail(err)
	}

	base := *target
	if base == "" {
		// Self-serve: load the world into live servers behind one loopback
		// listener — real TCP, no external process to coordinate.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		serveCtx, cancel := context.WithCancel(ctx)
		liveNet, wait, err := instance.ServeWorld(serveCtx, ln, w, instance.LoadOptions{MaxTootsPerUser: *maxToots})
		if err != nil {
			cancel()
			return fail(err)
		}
		defer wait() // after cancel
		defer cancel()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "fediload: self-serving %d instances on %s\n", len(liveNet.Domains()), base)
	}

	fmt.Fprintf(stderr, "fediload: %d requests at %.0f req/s over %d workers → %s\n",
		len(plan), *rate, *workers, base)
	rep, err := loadgen.Run(ctx, plan, loadgen.RunConfig{
		Target:  base,
		Workers: *workers,
		Timeout: *timeout,
	})
	if err != nil {
		return fail(err)
	}
	rep.Seed = *seed
	rep.TargetRateRPS = *rate

	// With -json - the report owns stdout; the human summary moves to
	// stderr so the JSON stays pipeable.
	sum := stdout
	if *jsonOut == "-" {
		sum = stderr
	}
	fmt.Fprintf(sum, "requests %d  (2xx %d, 304 %d, other %d, errors %d)  %.0f req/s achieved\n",
		rep.Requests, rep.Status2xx, rep.Status304, rep.StatusOther, rep.Errors, rep.ThroughputRPS)
	fmt.Fprintf(sum, "latency ms  p50 %.3f  p90 %.3f  p99 %.3f  p999 %.3f  max %.3f  mean %.3f\n",
		rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.P999Ms, rep.MaxMs, rep.MeanMs)

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			stdout.Write(buf)
		} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			return fail(err)
		}
	}
	return 0
}
