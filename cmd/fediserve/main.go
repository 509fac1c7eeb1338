// Command fediserve hosts a world as a live HTTP fediverse: every instance
// is served on one listener, multiplexed by Host header, speaking the
// instance API, public timelines, follower pages and the federation inbox.
//
// Usage:
//
//	fediserve -world world.fedi -addr :8080
//	curl -H 'Host: instance-0001.fedi.test' localhost:8080/api/v1/instance
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/instance"
)

func main() {
	scale := flag.String("scale", "tiny", "world scale when generating: tiny | small | paper")
	seed := flag.Uint64("seed", 1, "generator seed")
	worldFile := flag.String("world", "", "load a world file instead of generating")
	addr := flag.String("addr", ":8080", "listen address")
	maxToots := flag.Int("max-toots", 10, "toot objects materialised per user")
	offlineGone := flag.Bool("offline-gone", true, "serve churned instances as offline")
	flag.Parse()

	var w *dataset.World
	var err error
	if *worldFile != "" {
		w, err = dataset.LoadFile(*worldFile)
	} else {
		w, err = core.BuildWorld(core.Scale(*scale), *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		os.Exit(2)
	}

	start := time.Now()
	liveNet, err := instance.LoadWorld(context.Background(), w, instance.LoadOptions{
		MaxTootsPerUser: *maxToots,
		OfflineGone:     *offlineGone,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		os.Exit(1)
	}

	// Bind before announcing readiness: scripts wait for the "serving on"
	// line, so it must mean requests will actually be accepted.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d instances in %v; serving on %s\n",
		len(liveNet.Domains()), time.Since(start).Round(time.Millisecond), ln.Addr())
	if len(w.Instances) > 0 {
		fmt.Printf("try: curl -H 'Host: %s' 'http://localhost%s/api/v1/instance'\n",
			w.Instances[0].Domain, *addr)
	}

	srv := &http.Server{
		Handler:           liveNet,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "fediserve:", err)
		os.Exit(1)
	}
}
