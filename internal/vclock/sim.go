package vclock

import (
	"container/heap"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Sim is a deterministic virtual clock. Time only moves when something moves
// it; nothing ever sleeps for real. It has two modes:
//
//   - Manual (default): Sleep blocks the caller until Advance/AdvanceTo/Step
//     moves virtual time past the wake-up point. A test driver owns the
//     arrow of time.
//   - Elastic (SetElastic(true)): Sleep advances virtual time itself and
//     returns immediately. Whole subsystems full of backoff loops and rate
//     limiters then run flat out, with virtual time stretching to cover
//     every sleep — the mode the simnet campaign harness uses.
//
// Waiters are fired in (wake-up time, registration order) order, so runs are
// reproducible. All methods are safe for concurrent use.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	waiters waiterHeap
	elastic bool

	sleeps atomic.Int64 // completed virtual Sleep calls
}

// NewSim returns a manual-mode virtual clock starting at start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// NewElastic returns an elastic-mode virtual clock starting at start.
func NewElastic(start time.Time) *Sim {
	s := NewSim(start)
	s.SetElastic(true)
	return s
}

type waiter struct {
	at  time.Time
	seq uint64
	// fire is invoked with s.mu held when virtual time reaches at.
	fire func()
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// SetElastic switches between manual and elastic modes.
func (s *Sim) SetElastic(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elastic = v
}

// SleepCount reports how many Sleep calls have completed on this clock —
// the witness that backoff/limiter paths really ran through virtual time.
func (s *Sim) SleepCount() int64 { return s.sleeps.Load() }

// WaiterCount reports how many sleepers are currently scheduled.
func (s *Sim) WaiterCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// push registers a waiter; s.mu must be held.
func (s *Sim) pushLocked(at time.Time, fire func()) *waiter {
	s.seq++
	w := &waiter{at: at, seq: s.seq, fire: fire}
	heap.Push(&s.waiters, w)
	return w
}

// advanceLocked moves virtual time to target, firing due waiters in
// deterministic order. Time never moves backwards: target <= now is a no-op.
func (s *Sim) advanceLocked(target time.Time) {
	for len(s.waiters) > 0 && !s.waiters[0].at.After(target) {
		w := heap.Pop(&s.waiters).(*waiter)
		if w.at.After(s.now) {
			s.now = w.at
		}
		w.fire()
	}
	if target.After(s.now) {
		s.now = target
	}
}

// Advance moves virtual time forward by d, waking every sleeper
// whose deadline falls inside the window.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(s.now.Add(d))
}

// AdvanceTo moves virtual time to t (no-op when t is not after Now).
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(t)
}

// Step advances virtual time to the earliest pending waiter and fires it
// (plus any others sharing the same instant), reporting whether a waiter
// existed. It is the manual-mode driver primitive: loop Step while a
// background task still has work in flight.
func (s *Sim) Step() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 {
		return false
	}
	s.advanceLocked(s.waiters[0].at)
	return true
}

// Sleep implements Clock.
func (s *Sim) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		s.sleeps.Add(1)
		return nil
	}
	s.mu.Lock()
	if s.elastic {
		// Elastic time: the sleeper drags virtual time forward itself.
		s.advanceLocked(s.now.Add(d))
		s.mu.Unlock()
		s.sleeps.Add(1)
		return nil
	}
	ch := make(chan struct{})
	w := s.pushLocked(s.now.Add(d), func() { close(ch) })
	s.mu.Unlock()

	select {
	case <-ctx.Done():
		s.remove(w)
		// The waiter may have fired between Done and remove; either way the
		// sleep is over and cancellation wins.
		return ctx.Err()
	case <-ch:
		s.sleeps.Add(1)
		return nil
	}
}

// remove deletes a waiter if it is still scheduled.
func (s *Sim) remove(w *waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, cand := range s.waiters {
		if cand == w {
			heap.Remove(&s.waiters, i)
			return
		}
	}
}
