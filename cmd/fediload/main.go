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
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/instance"
	"repro/internal/loadgen"
	"repro/internal/profile"
)

func main() { os.Exit(run()) }

// run returns the exit code instead of calling os.Exit, so that the
// deferred profile writers run.
func run() int {
	scale := flag.String("scale", "tiny", "world scale when generating: tiny | small | paper")
	seed := flag.Uint64("seed", 1, "generator seed; also drives the request plan")
	worldFile := flag.String("world", "", "load a world file instead of generating")
	target := flag.String("target", "", "base URL of a running fediserve (empty = self-serve on a loopback listener)")
	rate := flag.Float64("rate", 1000, "target open-loop arrival rate, requests/second")
	duration := flag.Duration("duration", 5*time.Second, "load window (ignored when -count is set)")
	count := flag.Int("count", 0, "exact request count (0 = rate*duration)")
	workers := flag.Int("workers", 16, "request workers (keep-alive connections)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	maxToots := flag.Int("max-toots", 10, "self-serve: toot objects materialised per user")
	jsonOut := flag.String("json", "", "write the JSON report here ('-' = stdout)")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start("fediload")
	if err != nil {
		return fail(err)
	}
	defer stop()

	var w *dataset.World
	if *worldFile != "" {
		w, err = dataset.LoadFile(*worldFile)
	} else {
		w, err = core.BuildWorld(core.Scale(*scale), *seed)
	}
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
		liveNet, err := instance.LoadWorld(context.Background(), w, instance.LoadOptions{MaxTootsPerUser: *maxToots})
		if err != nil {
			return fail(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		srv := &http.Server{Handler: liveNet, ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "fediload: self-serving %d instances on %s\n", len(liveNet.Domains()), base)
	}

	fmt.Fprintf(os.Stderr, "fediload: %d requests at %.0f req/s over %d workers → %s\n",
		len(plan), *rate, *workers, base)
	rep, err := loadgen.Run(context.Background(), plan, loadgen.RunConfig{
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
	sum := os.Stdout
	if *jsonOut == "-" {
		sum = os.Stderr
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
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			return fail(err)
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "fediload:", err)
	return 1
}
