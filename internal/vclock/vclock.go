// Package vclock abstracts time for every time-dependent seam of the
// reproduction: crawler retry backoff, per-host rate limiting, probe timestamps
// and federation delivery latency. Production code takes a Clock and
// never touches the time package directly for sleeping; tests and
// the simnet harness inject a Sim clock so a multi-week measurement campaign
// runs in milliseconds of wall time with zero real sleeps.
package vclock

import (
	"context"
	"time"
)

// Clock is an injectable source of time.
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock or ctx is cancelled,
	// returning ctx.Err() in the latter case. Non-positive d returns
	// immediately (after a cancellation check).
	Sleep(ctx context.Context, d time.Duration) error
}

// System returns the real clock backed by the time package.
func System() Clock { return systemClock{} }

// OrSystem returns c, or the system clock when c is nil — the idiom for
// components with an optional Clock field.
func OrSystem(c Clock) Clock {
	if c == nil {
		return System()
	}
	return c
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
