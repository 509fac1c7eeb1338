package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestActorString(t *testing.T) {
	a := Actor{User: "alice", Domain: "example.social"}
	if a.String() != "alice@example.social" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestActivityValidate(t *testing.T) {
	from := Actor{User: "a", Domain: "x"}
	target := Actor{User: "b", Domain: "y"}
	note := &Note{ID: "x/1", Author: from, CreatedAt: time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)}
	dated := func(t time.Time) *Note { return &Note{ID: "x/1", Author: from, CreatedAt: t} }
	tests := []struct {
		name string
		a    Activity
		ok   bool
	}{
		{"follow ok", Activity{Type: TypeFollow, From: from, Target: target}, true},
		{"follow no target", Activity{Type: TypeFollow, From: from}, false},
		{"no from", Activity{Type: TypeFollow, Target: target}, false},
		{"create ok", Activity{Type: TypeCreate, From: from, Note: note}, true},
		{"create no note", Activity{Type: TypeCreate, From: from}, false},
		{"create empty id", Activity{Type: TypeCreate, From: from, Note: &Note{}}, false},
		{"create no created_at", Activity{Type: TypeCreate, From: from, Note: dated(time.Time{})}, false},
		{"create dated 1600", Activity{Type: TypeCreate, From: from, Note: dated(time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC))}, false},
		{"create dated 2300", Activity{Type: TypeCreate, From: from, Note: dated(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC))}, false},
		{"create dated 1678", Activity{Type: TypeCreate, From: from, Note: dated(time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC))}, true},
		{"create dated 2262", Activity{Type: TypeCreate, From: from, Note: dated(time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC))}, true},
		{"create at the epoch", Activity{Type: TypeCreate, From: from, Note: dated(time.Unix(0, 0))}, true},
		{"boost ok", Activity{Type: TypeBoost, From: from, Note: note}, true},
		{"boost no created_at", Activity{Type: TypeBoost, From: from, Note: dated(time.Time{})}, false},
		{"undo ok", Activity{Type: TypeUndo, From: from, Target: target}, true},
		{"unknown", Activity{Type: "Dance", From: from}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.a.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestActivityRoundTrip(t *testing.T) {
	a := &Activity{
		Type: TypeCreate,
		From: Actor{User: "alice", Domain: "x.test"},
		Note: &Note{ID: "x.test/9", Author: Actor{User: "alice", Domain: "x.test"}, Content: "hi", CreatedAt: time.Unix(1000, 0).UTC()},
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.DecodeActivity(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Note.Content != "hi" || back.From.User != "alice" {
		t.Fatalf("round trip: %+v", back)
	}
	if _, err := wire.DecodeActivity([]byte("{")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := wire.DecodeActivity([]byte(`{"type":"Create"}`)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSubscriptions(t *testing.T) {
	s := NewSubscriptions()
	s.AddSubscriber("alice", "b.test")
	s.AddSubscriber("alice", "c.test")
	s.AddSubscriber("alice", "b.test") // second follower from b.test
	got := s.SubscriberDomains("alice")
	if len(got) != 2 || got[0] != "b.test" || got[1] != "c.test" {
		t.Fatalf("domains = %v", got)
	}
	// One removal leaves the second b.test subscription alive.
	s.RemoveSubscriber("alice", "b.test")
	if got := s.SubscriberDomains("alice"); len(got) != 2 {
		t.Fatalf("after one removal: %v", got)
	}
	s.RemoveSubscriber("alice", "b.test")
	if got := s.SubscriberDomains("alice"); len(got) != 1 || got[0] != "c.test" {
		t.Fatalf("after full removal: %v", got)
	}
	if got := s.SubscriberDomains("nobody"); len(got) != 0 {
		t.Fatalf("unknown user: %v", got)
	}
}

func TestSubscriptionsRemoteFollows(t *testing.T) {
	s := NewSubscriptions()
	r1 := Actor{User: "x", Domain: "far.test"}
	r2 := Actor{User: "y", Domain: "far.test"}
	s.AddRemoteFollow(r1)
	s.AddRemoteFollow(r2)
	s.AddRemoteFollow(r1)
	if n := s.RemoteFollowCount(); n != 3 {
		t.Fatalf("count = %d", n)
	}
	if peers := s.PeerDomains(); len(peers) != 1 || peers[0] != "far.test" {
		t.Fatalf("peers = %v", peers)
	}
}

func TestSubscriptionsConcurrent(t *testing.T) {
	s := NewSubscriptions()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				d := fmt.Sprintf("d%d.test", j%10)
				s.AddSubscriber("alice", d)
				s.AddRemoteFollow(Actor{User: "x", Domain: d})
				_ = s.SubscriberDomains("alice")
				_ = s.PeerDomains()
				_ = s.RemoteFollowCount()
			}
		}(i)
	}
	wg.Wait()
	if len(s.SubscriberDomains("alice")) != 10 {
		t.Fatalf("domains = %v", s.SubscriberDomains("alice"))
	}
}

// sink is a trivial Inbox for transport tests.
type sink struct {
	domain string
	mu     sync.Mutex
	got    []*Activity
	fail   bool
}

func (s *sink) Domain() string { return s.domain }
func (s *sink) Receive(_ context.Context, a *Activity) error {
	if s.fail {
		return errors.New("inbox failure")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, a)
	return nil
}

func follow(from, to string) *Activity {
	return &Activity{
		Type:   TypeFollow,
		From:   Actor{User: "a", Domain: from},
		Target: Actor{User: "b", Domain: to},
	}
}

func TestBusDeliver(t *testing.T) {
	b := NewBus()
	in := &sink{domain: "x.test"}
	b.Register(in)
	if err := b.Deliver(context.Background(), "x.test", follow("y.test", "x.test")); err != nil {
		t.Fatal(err)
	}
	if len(in.got) != 1 {
		t.Fatalf("got %d activities", len(in.got))
	}
	if err := b.Deliver(context.Background(), "nowhere.test", follow("y", "n")); err == nil {
		t.Fatal("expected error for unknown inbox")
	}
}

func TestBusLatencyOnVirtualClock(t *testing.T) {
	// 200 deliveries at 250ms simulated latency = 50s of virtual delay,
	// but no real sleeping: wall time stays trivially small.
	clk := vclock.NewElastic(time.Unix(0, 0))
	b := NewBus()
	b.SetLatency(clk, 250*time.Millisecond)
	in := &sink{domain: "x.test"}
	b.Register(in)
	start := time.Now()
	for i := 0; i < 200; i++ {
		if err := b.Deliver(context.Background(), "x.test", follow("y.test", "x.test")); err != nil {
			t.Fatal(err)
		}
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("latency slept %v of wall time", wall)
	}
	if got := clk.Now().Sub(time.Unix(0, 0)); got != 50*time.Second {
		t.Fatalf("virtual time = %v, want 50s", got)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.got) != 200 {
		t.Fatalf("delivered %d", len(in.got))
	}
}
