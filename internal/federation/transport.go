package federation

import (
	"context"
	"fmt"
	"sync"
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
	mu    sync.RWMutex
	boxes map[string]Inbox
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

// Deliver implements Transport synchronously.
func (b *Bus) Deliver(ctx context.Context, domain string, a *Activity) error {
	b.mu.RLock()
	in, ok := b.boxes[domain]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("federation: no inbox for %s", domain)
	}
	return in.Receive(ctx, a)
}
