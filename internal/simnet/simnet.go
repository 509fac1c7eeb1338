// Package simnet is the deterministic fediverse-in-a-bottle: it wires a
// generated dataset.World into live instance servers, fronts them with an
// in-memory HTTP transport, drives every time-dependent seam (crawler
// backoff, rate limiting, probe cadence, federation latency) from one
// virtual clock, and replays availability traces onto the running servers
// through an outage injector. On top of it, Campaign reruns the paper's §3
// measurement pipeline — the five-minute probing campaign, the toot
// crawl and the follower scrape — over weeks of simulated time in
// milliseconds of wall time, and Rebuild reconstructs a dataset.World from
// nothing but the crawled artefacts so tests can hold the recovered world
// against generated ground truth, byte for byte.
package simnet

import (
	"context"
	"net/http"
	"time"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/instance"
	"repro/internal/vclock"
)

// SlotDuration is the wall length of one probe slot (five minutes, §3).
const SlotDuration = 24 * time.Hour / time.Duration(dataset.SlotsPerDay)

// Options configures a Harness.
type Options struct {
	// MaxTootsPerUser caps the toots materialised per user (0 = 10; see
	// instance.LoadOptions).
	MaxTootsPerUser int
	// Retries/Backoff configure the crawler client (0 = its defaults).
	// All backoff waits run on the harness's virtual clock.
	Retries int
	Backoff time.Duration
	// RatePerHost/Burst, when positive, install a per-host token bucket on
	// the client — throttling that costs virtual, not wall, time.
	RatePerHost float64
	Burst       float64
	// RequestTimeout bounds each individual crawler attempt (0 = none);
	// under chaos schedules it is what turns a hang into one lost deadline
	// instead of a stalled campaign.
	RequestTimeout time.Duration
	// Breaker, when set, installs a per-host circuit breaker on the
	// client. Opt-in: a breaker changes how long-outage hosts are treated,
	// so only chaos-aware campaigns ask for one.
	Breaker *crawler.BreakerConfig
}

// Harness is a live, virtually-clocked fediverse built from a generated
// world.
type Harness struct {
	World  *dataset.World
	Net    *instance.Network
	Clock  *vclock.Sim
	Client *crawler.Client
	// Faults is the chaos layer between the client and the in-memory
	// network. Always present; a pure passthrough until a fault schedule
	// is installed (Injector.BindFaults or Faults.Install).
	Faults *FaultTransport
}

// New loads the world into live servers and returns the harness. The
// virtual clock starts at the world's epoch and is elastic: any component
// that sleeps drags virtual time forward instead of blocking.
func New(ctx context.Context, w *dataset.World, opts Options) (*Harness, error) {
	clk := vclock.NewElastic(dataset.Day(0))
	net, err := instance.LoadWorld(ctx, w, instance.LoadOptions{
		MaxTootsPerUser: opts.MaxTootsPerUser,
		Clock:           clk,
	})
	if err != nil {
		return nil, err
	}
	faults := NewFaultTransport(&MemoryTransport{Handler: net}, clk)
	cli := &crawler.Client{
		HTTP:           &http.Client{Transport: faults},
		Retries:        opts.Retries,
		Backoff:        opts.Backoff,
		Clock:          clk,
		RequestTimeout: opts.RequestTimeout,
	}
	if opts.RatePerHost > 0 && opts.Burst > 0 {
		cli.Limiter = crawler.NewHostLimiterClock(opts.RatePerHost, opts.Burst, clk)
	}
	if opts.Breaker != nil {
		cli.Breaker = crawler.NewHostBreaker(*opts.Breaker, clk)
	}
	return &Harness{World: w, Net: net, Clock: clk, Client: cli, Faults: faults}, nil
}
