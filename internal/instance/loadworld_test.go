package instance

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/sim"
)

// microWorld: two instances; u0,u1 on a (u1 private), u2 on b.
// Follows: u2→u0 (remote), u1→u0 (local).
func microWorld() *dataset.World {
	g := graph.FromRows([][]int32{nil, {0}, {0}})
	ts := sim.NewTraceSet(2, 2, dataset.SlotsPerDay)
	ts.Traces[1].SetDownRange(0, dataset.SlotsPerDay) // b down on day 0
	return &dataset.World{
		Days: 2,
		Instances: []dataset.Instance{
			{ID: 0, Domain: "a.test", Open: true, Users: 2, GoneDay: -1},
			{ID: 1, Domain: "b.test", Open: false, Users: 1, GoneDay: 1},
		},
		Users: []dataset.User{
			{ID: 0, Instance: 0, Toots: 3},
			{ID: 1, Instance: 0, Toots: 1, Private: true},
			{ID: 2, Instance: 1, Toots: 25},
		},
		Social: g,
		Traces: ts,
	}
}

func TestLoadWorldEndToEnd(t *testing.T) {
	w := microWorld()
	net, err := LoadWorld(context.Background(), w, LoadOptions{MaxTootsPerUser: 10, OfflineGone: true})
	if err != nil {
		t.Fatal(err)
	}
	a := net.Server("a.test")
	b := net.Server("b.test")
	if a == nil || b == nil {
		t.Fatal("servers missing")
	}
	// Gone instance served offline.
	if b.Online() {
		t.Fatal("churned instance should be offline")
	}
	// Accounts registered (closed instance accepts invites during load).
	if a.Stats().Users != 2 || b.Stats().Users != 1 {
		t.Fatalf("users: a=%d b=%d", a.Stats().Users, b.Stats().Users)
	}
	// Remote follow u2→u0 installed a subscription b.test → u0.
	if got := a.FollowerCount(UserName(0)); got != 2 {
		t.Fatalf("u0 followers = %d, want 2 (one local, one remote)", got)
	}
	// Toots: u0 posted 3, u1 1 (private), u2 capped at 10.
	if a.Stats().Statuses != 4 {
		t.Fatalf("a statuses = %d, want 4", a.Stats().Statuses)
	}
	if b.Stats().Statuses != 10 {
		t.Fatalf("b statuses = %d, want 10 (capped)", b.Stats().Statuses)
	}
	// u0's public toots were federated onto b (its follower's instance),
	// even though b is "offline" to HTTP (content exists, unreachable).
	remote := 0
	for _, toot := range b.PublicTimeline(TimelineFederated, 0, 40) {
		if toot.Remote {
			remote++
		}
	}
	if remote != 3 {
		t.Fatalf("b remote federated toots = %d, want u0's 3", remote)
	}
	// u1 is private: nothing federated, hidden from a's public timeline.
	pub := a.PublicTimeline(TimelineLocal, 0, 40)
	for _, toot := range pub {
		if toot.Author.User == UserName(1) {
			t.Fatal("private user's toot exposed")
		}
	}
	if len(pub) != 3 {
		t.Fatalf("a public local timeline = %d toots", len(pub))
	}
}

func TestLoadWorldDefaults(t *testing.T) {
	w := microWorld()
	net, err := LoadWorld(context.Background(), w, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Default cap is 10; OfflineGone defaults to false.
	if !net.Server("b.test").Online() {
		t.Fatal("without OfflineGone, churned servers stay online")
	}
}

func TestUserName(t *testing.T) {
	if UserName(42) != "u42" {
		t.Fatalf("UserName = %s", UserName(42))
	}
}
