package vclock

import (
	"context"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2017, time.April, 11, 0, 0, 0, 0, time.UTC)

func TestSimNowAndAdvance(t *testing.T) {
	s := NewSim(epoch)
	if !s.Now().Equal(epoch) {
		t.Fatalf("start = %v", s.Now())
	}
	s.Advance(5 * time.Minute)
	if got := s.Now(); !got.Equal(epoch.Add(5 * time.Minute)) {
		t.Fatalf("after advance = %v", got)
	}
	// Backwards AdvanceTo is a no-op.
	s.AdvanceTo(epoch)
	if got := s.Now(); !got.Equal(epoch.Add(5 * time.Minute)) {
		t.Fatalf("time moved backwards: %v", got)
	}
}

func TestSimManualSleepWakesOnAdvance(t *testing.T) {
	s := NewSim(epoch)
	done := make(chan time.Time, 1)
	go func() {
		if err := s.Sleep(context.Background(), time.Hour); err != nil {
			t.Error(err)
		}
		done <- s.Now()
	}()
	// Wait for the sleeper to register, then advance past its deadline.
	for s.WaiterCount() == 0 {
		time.Sleep(time.Microsecond)
	}
	s.Advance(time.Hour)
	select {
	case woke := <-done:
		if !woke.Equal(epoch.Add(time.Hour)) {
			t.Fatalf("woke at %v", woke)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sleeper never woke")
	}
	if s.SleepCount() != 1 {
		t.Fatalf("sleep count = %d", s.SleepCount())
	}
}

func TestSimStepFiresEarliestFirst(t *testing.T) {
	s := NewSim(epoch)
	var mu sync.Mutex
	var order []string
	sleep := func(name string, d time.Duration) {
		go func() {
			_ = s.Sleep(context.Background(), d)
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}()
	}
	sleep("late", 3*time.Hour)
	for s.WaiterCount() != 1 {
		time.Sleep(time.Microsecond)
	}
	sleep("early", time.Hour)
	for s.WaiterCount() != 2 {
		time.Sleep(time.Microsecond)
	}
	if !s.Step() {
		t.Fatal("no waiter fired")
	}
	if got := s.Now(); !got.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("step advanced to %v", got)
	}
	// Give the early sleeper time to record itself.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Microsecond)
	}
	if !s.Step() {
		t.Fatal("second waiter missing")
	}
	for s.SleepCount() != 2 {
		time.Sleep(time.Microsecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("wake order = %v", order)
	}
	if s.Step() {
		t.Fatal("spurious waiter")
	}
}

func TestSimSleepCancel(t *testing.T) {
	s := NewSim(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.Sleep(ctx, time.Hour) }()
	for s.WaiterCount() == 0 {
		time.Sleep(time.Microsecond)
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if s.WaiterCount() != 0 {
		t.Fatal("cancelled waiter still scheduled")
	}
}

func TestSimElasticSleepAdvancesTime(t *testing.T) {
	s := NewElastic(epoch)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := s.Sleep(context.Background(), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("elastic sleeps took %v of wall time", wall)
	}
	if got := s.Now(); !got.Equal(epoch.Add(1000 * time.Hour)) {
		t.Fatalf("virtual time = %v", got)
	}
	if s.SleepCount() != 1000 {
		t.Fatalf("sleep count = %d", s.SleepCount())
	}
}

func TestSimDeterministicFireOrder(t *testing.T) {
	// Waiters at the same instant fire in registration order.
	s := NewSim(epoch)
	var order []int
	s.mu.Lock()
	for i := 0; i < 5; i++ {
		i := i
		s.pushLocked(epoch.Add(time.Minute), func() { order = append(order, i) })
	}
	s.mu.Unlock()
	s.Advance(time.Minute)
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d of 5", len(order))
	}
}

func TestSystemClock(t *testing.T) {
	c := System()
	if d := time.Since(c.Now()); d < -time.Minute || d > time.Minute {
		t.Fatalf("system clock skewed by %v", d)
	}
	if err := c.Sleep(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if OrSystem(nil) == nil || OrSystem(c) != c {
		t.Fatal("OrSystem wrong")
	}
}
