// Command fediserve hosts a world as a live HTTP fediverse: every instance
// is served on one listener, multiplexed by Host header, speaking the
// instance API, public timelines, follower pages and the federation inbox.
//
// Usage:
//
//	fediserve -world world.fedi -addr :8080 [-pprof localhost:6060]
//	curl -H 'Host: instance-0001.fedi.test' localhost:8080/api/v1/instance
//	go tool pprof http://localhost:6060/debug/pprof/heap
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, which only -pprof serves
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/profile"
)

func main() {
	// An interrupt shuts the server down. It also restores the default, so
	// a second one ends the process at once, during a long world load too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command, serving until ctx is done and writing only to stdout
// and stderr; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fediserve", flag.ContinueOnError)
	scale := fs.String("scale", "tiny", "world scale when generating: tiny | small | paper")
	seed := fs.Uint64("seed", 1, "generator seed")
	worldFile := fs.String("world", "", "load a world file instead of generating")
	addr := fs.String("addr", ":8080", "listen address")
	maxToots := fs.Int("max-toots", 10, "toot objects materialised per user")
	offlineGone := fs.Bool("offline-gone", true, "serve churned instances as offline")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty: off)")
	stop, code := profile.Parse(fs, args, stderr)
	if stop == nil {
		return code
	}
	defer stop()

	w, err := core.LoadOrBuild(*worldFile, core.Scale(*scale), *seed)
	if err != nil {
		fmt.Fprintln(stderr, "fediserve:", err)
		return 2
	}

	if *pprofAddr != "" {
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "fediserve:", err)
			return 1
		}
		fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", pl.Addr())
		// No read or write timeout: a CPU profile or trace streams for as
		// long as it was asked to.
		ps := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		defer ps.Close()
		go func() {
			if err := ps.Serve(pl); err != http.ErrServerClosed {
				fmt.Fprintln(stderr, "fediserve: pprof:", err)
			}
		}()
	}

	// Bind before announcing readiness: a caller waits for the "serving on"
	// line, so it must mean requests will actually be accepted.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "fediserve:", err)
		return 1
	}
	start := time.Now()
	liveNet, wait, err := instance.ServeWorld(ctx, ln, w, instance.LoadOptions{
		MaxTootsPerUser: *maxToots,
		OfflineGone:     *offlineGone,
	})
	if err != nil {
		fmt.Fprintln(stderr, "fediserve:", err)
		return 1
	}
	took := time.Since(start)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(stdout, "loaded %d instances in %v (%.1f MB heap); serving on %s\n",
		len(liveNet.Domains()), took.Round(time.Millisecond), float64(mem.HeapAlloc)/1e6, ln.Addr())
	if len(w.Instances) > 0 {
		fmt.Fprintf(stdout, "try: curl -H 'Host: %s' 'http://%s/api/v1/instance'\n",
			w.Instances[0].Domain, ln.Addr())
	}

	if err := wait(); err != nil {
		fmt.Fprintln(stderr, "fediserve:", err)
		return 1
	}
	return 0
}
