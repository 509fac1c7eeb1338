package federation

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Inbox is implemented by anything that can receive federation activities
// (an instance server).
type Inbox interface {
	// Domain returns the instance's domain.
	Domain() string
	// Receive processes one inbound activity.
	Receive(ctx context.Context, a *Activity) error
}

// Transport delivers activities between instances.
type Transport interface {
	// Deliver sends an activity to the instance at domain.
	Deliver(ctx context.Context, domain string, a *Activity) error
}

// Bus is an in-process Transport: a registry of inboxes that delivers on the
// caller's goroutine. It backs whole simulated fediverses running inside one
// process.
type Bus struct {
	mu      sync.RWMutex
	boxes   map[string]Inbox
	clk     vclock.Clock
	latency time.Duration
}

// NewBus returns a Bus with no inboxes.
func NewBus() *Bus {
	return &Bus{boxes: make(map[string]Inbox)}
}

// Register adds an inbox. Re-registering a domain replaces it.
func (b *Bus) Register(in Inbox) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.boxes[in.Domain()] = in
}

// SetLatency makes every delivery take d on the given clock (nil clk = the
// system clock), modelling inter-instance network delay. With a vclock.Sim
// the delay is purely virtual. Zero d disables the delay.
func (b *Bus) SetLatency(clk vclock.Clock, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clk = vclock.OrSystem(clk)
	b.latency = d
}

// Deliver implements Transport synchronously.
func (b *Bus) Deliver(ctx context.Context, domain string, a *Activity) error {
	b.mu.RLock()
	in, ok := b.boxes[domain]
	clk, latency := b.clk, b.latency
	b.mu.RUnlock()
	if !ok {
		// Fail fast: no point paying the network delay on a delivery that
		// can never succeed.
		return fmt.Errorf("federation: no inbox for %s", domain)
	}
	if latency > 0 {
		if err := clk.Sleep(ctx, latency); err != nil {
			return err
		}
	}
	return in.Receive(ctx, a)
}
