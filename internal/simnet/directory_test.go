package simnet

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/instance"
	"repro/internal/vclock"
)

func dirNetwork(t *testing.T, n int, clk vclock.Clock) *instance.Network {
	t.Helper()
	net := instance.NewNetworkClock(clk)
	for i := 0; i < n; i++ {
		net.Add(instance.Config{Domain: fmt.Sprintf("d%d.test", i), Open: true})
	}
	return net
}

func TestDirectoryPublishResolve(t *testing.T) {
	ctx := context.Background()
	net := dirNetwork(t, 8, nil)
	d := NewDirectory(net)

	// Federate d0 with d1 and d2 so its peer list is non-trivial.
	s0 := net.Server("d0.test")
	if _, err := s0.CreateAccount("alice", false, true, time.Time{}); err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"d1.test", "d2.test"} {
		s := net.Server(peer)
		if _, err := s.CreateAccount("bob", false, true, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if err := s0.FollowRemote(ctx, "alice", federation.Actor{User: "bob", Domain: peer}); err != nil {
			t.Fatal(err)
		}
	}

	if err := d.PublishPresence("d0.test"); err != nil {
		t.Fatal(err)
	}
	val, hops, err := d.Resolve(dht.PresenceKey("d0.test"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if hops < 0 || hops > 64 {
		t.Fatalf("hops %d out of range", hops)
	}
	if !reflect.DeepEqual(val, []string{"d1.test", "d2.test"}) {
		t.Fatalf("presence = %v, want federation peers of d0", val)
	}
	if pubs, fails := d.Stats(); pubs != dht.DefaultReplication || fails != 0 {
		t.Fatalf("stats = %d/%d, want %d/0", pubs, fails, dht.DefaultReplication)
	}
}

func TestDirectorySyncMirrorsOutages(t *testing.T) {
	net := dirNetwork(t, 6, nil)
	d := NewDirectory(net)

	key := dht.AuthorKey(7)
	if err := d.Publish(key, []string{"d0.test"}); err != nil {
		t.Fatal(err)
	}
	holders, err := d.Ring.Holders(key)
	if err != nil {
		t.Fatal(err)
	}

	// Take every holder's server down; Sync must propagate that into the ring
	// and the record must become unresolvable until one recovers.
	for _, h := range holders {
		net.Server(h).SetOnline(false)
	}
	d.Sync()
	if _, _, err := d.Resolve(key); err == nil {
		t.Fatal("record resolvable with every index holder down")
	}
	net.Server(holders[0]).SetOnline(true)
	d.Sync()
	if _, _, err := d.Resolve(key); err != nil {
		t.Fatalf("record unresolvable after holder recovery: %v", err)
	}

	// A down instance cannot refresh its own presence.
	net.Server("d1.test").SetOnline(false)
	d.Sync()
	if err := d.PublishPresence("d1.test"); err == nil {
		t.Fatal("down instance published its own presence")
	}
}

func TestDirectoryPublishFailuresCountDownHolders(t *testing.T) {
	net := dirNetwork(t, 6, nil)
	d := NewDirectory(net)

	key := dht.AuthorKey(42)
	holders, err := d.Ring.Holders(key)
	if err != nil {
		t.Fatal(err)
	}
	net.Server(holders[1]).SetOnline(false)
	d.Sync()
	if err := d.Publish(key, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if pubs, fails := d.Stats(); pubs != 3 || fails != 1 {
		t.Fatalf("stats = %d/%d, want 3/1 (one index holder down)", pubs, fails)
	}
	// The record is still placed (membership-based) and resolvable via the
	// two live holders.
	if _, _, err := d.Resolve(key); err != nil {
		t.Fatalf("resolve with 2/3 holders up: %v", err)
	}
}

func TestDirectoryRegister(t *testing.T) {
	net := dirNetwork(t, 4, nil)
	d := NewDirectory(net)

	// A newbie registers mid-campaign and becomes part of the index.
	net.Add(instance.Config{Domain: "newbie.test", Open: true})
	d.Register("newbie.test")
	d.Register("newbie.test") // idempotent
	if got := len(d.Members()); got != 5 {
		t.Fatalf("members = %d, want 5", got)
	}
	if err := d.PublishPresence("newbie.test"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Resolve(dht.PresenceKey("newbie.test")); err != nil {
		t.Fatalf("newbie presence unresolvable: %v", err)
	}
}
