package simnet

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/instance"
	"repro/internal/vclock"
)

// The flash-crowd scenario from the ROADMAP backlog: many crawler workers
// converge on one instance behind a tightened HostLimiter, entirely in
// virtual time. The limiter must spread throughput fairly across workers
// (its reservations are served in deadline order), enforce the aggregate
// rate exactly, and the client's retry backoff against the overwhelmed
// host must stay strictly monotone.

// TestFlashCrowdFairness: W workers share one client and one token bucket
// against a single hot instance on a manual Sim clock, with the test
// driving the arrow of time. Per-worker completion counts must stay within
// a burst-sized spread of each other, and the campaign must cost exactly
// the token-bucket time.
func TestFlashCrowdFairness(t *testing.T) {
	const (
		workers = 8
		budget  = 200
		rate    = 20.0
		burst   = 4.0
	)
	net := instance.NewNetwork()
	net.Add(instance.Config{Domain: "hot.sim", Open: true})
	clk := vclock.NewSim(dataset.Day(0))
	cli := &crawler.Client{
		HTTP:    &http.Client{Transport: &MemoryTransport{Handler: net}},
		Retries: 1,
		Clock:   clk,
		Limiter: crawler.NewHostLimiterClock(rate, burst, clk),
	}

	ctx := context.Background()
	var issued, live atomic.Int64
	live.Store(workers)
	counts := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer live.Add(-1)
			for issued.Add(1) <= budget {
				if _, err := cli.GetChecked(ctx, "hot.sim", "/api/v1/instance", nil, nil); err != nil {
					t.Error(err)
					return
				}
				counts[w]++
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// The driver owns virtual time and moves it only at quiescence: when
	// every live worker is parked on the limiter. Stepping as soon as one
	// worker waits would let the Go scheduler, not the token bucket, decide
	// who is served next — a runnable worker that has not reserved yet
	// would find the clock already past the slot it was owed.
drive:
	for {
		select {
		case <-done:
			break drive
		default:
			if n := live.Load(); n > 0 && int64(clk.WaiterCount()) == n {
				clk.Step()
			} else {
				runtime.Gosched()
			}
		}
	}

	total, min, max := int64(0), int64(budget), int64(0)
	for w := 0; w < workers; w++ {
		total += counts[w]
		if counts[w] < min {
			min = counts[w]
		}
		if counts[w] > max {
			max = counts[w]
		}
	}
	if total != budget {
		t.Fatalf("completed %d requests, want %d", total, budget)
	}
	// Fairness: reservations are honoured in deadline order, so a worker
	// can pull ahead by at most the initial burst plus re-reservation
	// jitter, and nobody drops below half a fair share.
	if spread := max - min; spread > 2*int64(burst)+2 {
		t.Fatalf("unfair limiter: per-worker counts %v (spread %d > 2*burst+2)", counts, spread)
	}
	if fair := int64(budget / workers); min < fair/2 {
		t.Fatalf("worker starved: per-worker counts %v (min %d < %d)", counts, min, fair/2)
	}
	// Exact aggregate rate: budget requests through a burst-b bucket cost
	// (budget-burst)/rate of virtual time, to the microsecond.
	want := time.Duration((budget - burst) / rate * float64(time.Second))
	got := clk.Now().Sub(dataset.Day(0))
	if d := got - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("flash crowd cost %v of virtual time, want %v", got, want)
	}
}

// recordingClock wraps a Clock and records every sleep it grants.
type recordingClock struct {
	vclock.Clock
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *recordingClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return c.Clock.Sleep(ctx, d)
}

// TestFlashCrowdBackoffMonotone: retrying against the overwhelmed (down)
// instance must back off in strictly doubling virtual waits, request after
// request, with no real sleeping.
func TestFlashCrowdBackoffMonotone(t *testing.T) {
	net := instance.NewNetwork()
	srv := net.Add(instance.Config{Domain: "hot.sim"})
	srv.SetOnline(false)
	rec := &recordingClock{Clock: vclock.NewElastic(dataset.Day(0))}
	const backoff = 20 * time.Millisecond
	cli := &crawler.Client{
		HTTP:    &http.Client{Transport: &MemoryTransport{Handler: net}},
		Retries: 5,
		Backoff: backoff,
		Clock:   rec,
	}

	wall := time.Now()
	const chains = 6
	for i := 0; i < chains; i++ {
		if _, err := cli.GetChecked(context.Background(), "hot.sim", "/", nil, nil); err == nil {
			t.Fatal("down instance served a request")
		}
	}
	if time.Since(wall) > 5*time.Second {
		t.Fatal("backoff slept for real")
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	perChain := 4 // Retries=5 → 4 backoffs between attempts
	if len(rec.sleeps) != chains*perChain {
		t.Fatalf("%d backoff sleeps, want %d", len(rec.sleeps), chains*perChain)
	}
	for c := 0; c < chains; c++ {
		chain := rec.sleeps[c*perChain : (c+1)*perChain]
		for k, d := range chain {
			if want := backoff << k; d != want {
				t.Fatalf("chain %d backoff %d = %v, want %v (strictly doubling)", c, k, d, want)
			}
		}
	}
}
