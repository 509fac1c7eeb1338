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
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, which only -pprof serves
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/instance"
	"repro/internal/profile"
)

func main() { os.Exit(run()) }

// run returns the exit code instead of calling os.Exit, so that the
// deferred profile writers run.
func run() int {
	scale := flag.String("scale", "tiny", "world scale when generating: tiny | small | paper")
	seed := flag.Uint64("seed", 1, "generator seed")
	worldFile := flag.String("world", "", "load a world file instead of generating")
	addr := flag.String("addr", ":8080", "listen address")
	maxToots := flag.Int("max-toots", 10, "toot objects materialised per user")
	offlineGone := flag.Bool("offline-gone", true, "serve churned instances as offline")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty: off)")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start("fediserve")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		return 2
	}
	defer stop()

	var w *dataset.World
	if *worldFile != "" {
		w, err = dataset.LoadFile(*worldFile)
	} else {
		w, err = core.BuildWorld(core.Scale(*scale), *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		return 2
	}

	start := time.Now()
	liveNet, err := instance.LoadWorld(context.Background(), w, instance.LoadOptions{
		MaxTootsPerUser: *maxToots,
		OfflineGone:     *offlineGone,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		return 1
	}

	// Bind before announcing readiness: scripts wait for the "serving on"
	// line, so it must mean requests will actually be accepted.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		return 1
	}
	took := time.Since(start)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if *pprofAddr != "" {
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fediserve:", err)
			return 1
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pl.Addr())
		// No read or write timeout: a CPU profile or trace streams for as
		// long as it was asked to.
		ps := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() { fmt.Fprintln(os.Stderr, "fediserve: pprof:", ps.Serve(pl)) }()
	}
	fmt.Printf("loaded %d instances in %v (%.1f MB heap); serving on %s\n",
		len(liveNet.Domains()), took.Round(time.Millisecond), float64(mem.HeapAlloc)/1e6, ln.Addr())
	if len(w.Instances) > 0 {
		fmt.Printf("try: curl -H 'Host: %s' 'http://localhost%s/api/v1/instance'\n",
			w.Instances[0].Domain, *addr)
	}

	srv := newServer(liveNet)
	ctx, unnotify := signal.NotifyContext(context.Background(), os.Interrupt)
	defer unnotify()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		return 1
	}
	return 0
}

// newServer returns the HTTP server for a live network, with every limit a
// client could otherwise hold a connection open past: a request's headers
// and body must arrive, and its response leave, within bounded times, an
// idle keep-alive connection is closed, and headers are capped in size.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second, // an inbox body is at most 1 MB
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}
