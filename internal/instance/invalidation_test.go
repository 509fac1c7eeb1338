package instance

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/federation"
)

// The oracle for the dirty sets. Two servers run the same seeded script of
// every mutating call; the test invalidates every page kind of one before
// each read of it and never sends it If-None-Match, so each of its bodies
// is rendered from the state at hand whichever kinds the mutations named.
// After every step every endpoint is fetched from both:
//
//   - the cached server's body must be byte-equal to the oracle's — a dirty
//     set too small shows here as a stale page;
//   - a revalidation with the tag held from before the step must be a 304
//     iff no page of that endpoint's kind changed in the oracle — a dirty
//     set too large shows here as a needless 200.
//
// The second rule has the exceptions listed in coarse: writes whose state
// change no public page shows, which the server does not tell apart.

type pageProbe struct {
	kind pageKind
	path string
}

var invalidationProbes = []pageProbe{
	{kindMeta, "/"},
	{kindMeta, "/api/v1/instance"},
	{kindMeta, "/api/v1/instance/peers"},
	{kindFederated, "/api/v1/timelines/public"},
	{kindFederated, "/api/v1/timelines/public?limit=3"},
	{kindFederated, "/api/v1/timelines/public?max_id=9&limit=3"},
	{kindFederated, "/api/v1/timelines/public?since_id=6"},
	{kindLocal, "/api/v1/timelines/public?local=true"},
	{kindLocal, "/api/v1/timelines/public?local=true&max_id=7&limit=2"},
	{kindLocal, "/api/v1/timelines/public?local=1&since_id=3"},
	{kindFollowers, "/users/alice/followers"},
	{kindFollowers, "/users/alice/followers?page=2"},
	{kindFollowers, "/users/bob/followers"},
	{kindFollowers, "/users/priv/followers"},
}

// scriptStep is one mutating call, applicable to any server.
type scriptStep struct {
	name   string
	coarse []pageKind // kinds this step may flip without changing a page
	apply  func(s *Server) error
}

// invalidationScript draws n steps over every mutating entry point. The
// draw depends only on rng, so both servers get the same calls.
func invalidationScript(rng *rand.Rand, n int) []scriptStep {
	ctx := context.Background()
	locals := []string{"alice", "bob", "priv"}
	domains := []string{"b.test", "c.test", "d.test"}
	// subs mirrors the subscriptions the script has delivered, so it knows
	// which Follow and Undo deliveries leave the peer list as it was.
	subs := map[[2]string]int{}
	peers := map[string]int{}
	steps := make([]scriptStep, 0, n)
	for i := 0; i < n; i++ {
		at := etagT0.Add(time.Duration(i) * time.Minute)
		local := locals[rng.Intn(len(locals))]
		remote := federation.Actor{User: fmt.Sprintf("r%d", rng.Intn(4)), Domain: domains[rng.Intn(len(domains))]}
		var st scriptStep
		switch rng.Intn(10) {
		case 0:
			st = scriptStep{name: "CreateAccount", apply: func(s *Server) error {
				_, err := s.CreateAccount(fmt.Sprintf("new%d", i), false, true, at)
				return err
			}}
		case 1:
			st = scriptStep{name: "PostToot", apply: func(s *Server) error {
				_, err := s.PostToot(ctx, local, fmt.Sprintf("toot %d", i), []string{"t"}, at)
				return err
			}}
			if local == "priv" {
				st.coarse = []pageKind{kindLocal, kindFederated}
			}
		case 2:
			st = scriptStep{name: "Boost", apply: func(s *Server) error {
				return s.Boost(ctx, local, fmt.Sprintf("%s/%d", remote.Domain, i), remote, at)
			}}
			if local == "priv" {
				st.coarse = []pageKind{kindFederated}
			}
		case 3:
			target := locals[rng.Intn(len(locals))]
			st = scriptStep{name: "FollowLocal", apply: func(s *Server) error { return s.FollowLocal(local, target) }}
		case 4:
			peers[remote.Domain]++
			st = scriptStep{name: "FollowRemote", apply: func(s *Server) error { return s.FollowRemote(ctx, local, remote) }}
		case 5:
			key := [2]string{local, remote.Domain}
			subs[key]++
			if peers[remote.Domain]++; peers[remote.Domain] > 1 {
				st.coarse = []pageKind{kindMeta} // already a peer
			}
			st.name = "Receive(Follow)"
			st.apply = func(s *Server) error {
				return s.Receive(ctx, &federation.Activity{
					Type: federation.TypeFollow, From: remote,
					Target: federation.Actor{User: local, Domain: s.Domain()},
				})
			}
		case 6:
			key := [2]string{local, remote.Domain}
			if subs[key] > 0 {
				subs[key]--
				if peers[remote.Domain]--; peers[remote.Domain] > 0 {
					st.coarse = []pageKind{kindMeta} // still a peer
				}
			}
			st.name = "Receive(Undo)"
			st.apply = func(s *Server) error {
				return s.Receive(ctx, &federation.Activity{
					Type: federation.TypeUndo, From: remote,
					Target: federation.Actor{User: local, Domain: s.Domain()},
				})
			}
		case 7:
			st = scriptStep{name: "Receive(Boost)", apply: func(s *Server) error {
				return s.Receive(ctx, &federation.Activity{
					Type: federation.TypeBoost, From: remote,
					Note: &federation.Note{ID: fmt.Sprintf("%s/%d", remote.Domain, i), Author: remote, CreatedAt: at},
				})
			}}
		default: // the write a live instance sees most
			st = scriptStep{name: "Receive(Create)", apply: func(s *Server) error {
				return s.Receive(ctx, &federation.Activity{
					Type: federation.TypeCreate, From: remote,
					Note: &federation.Note{
						ID: fmt.Sprintf("%s/%d", remote.Domain, i), Author: remote,
						Content: fmt.Sprintf("remote toot %d", i), Hashtags: []string{"r"}, CreatedAt: at,
					},
				})
			}}
		}
		steps = append(steps, st)
	}
	return steps
}

func TestInvalidationMatchesUncachedOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runInvalidationOracle(t, seed) })
	}
}

func runInvalidationOracle(t *testing.T, seed int64) {
	// An 8-slot federated ring: trimming and slab compaction run under the
	// script, and deep pages move.
	cached := NewServer(Config{Domain: "x.test", Open: true, MaxFederated: 8}, nil)
	oracle := NewServer(Config{Domain: "x.test", Open: true, MaxFederated: 8}, nil)
	getCached, getFresh := memoryCondFetcher(cached), memoryCondFetcher(oracle)
	getOracle := func(t *testing.T, path string) string {
		oracle.pages.invalidate(kindMeta, kindLocal, kindFederated, kindFollowers)
		_, _, body := getFresh(t, path, "")
		return body
	}

	// Both start from accounts to act on and a follower list two pages long.
	for _, s := range []*Server{cached, oracle} {
		for _, name := range []string{"alice", "bob", "priv"} {
			if _, err := s.CreateAccount(name, name == "priv", true, etagT0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 45; i++ {
			if err := s.FollowLocal("bob", "alice"); err != nil {
				t.Fatal(err)
			}
		}
	}

	held := make([]string, len(invalidationProbes)) // per probe: the tag of its latest response
	want := make([]string, len(invalidationProbes)) // per probe: the oracle's latest body
	for i, p := range invalidationProbes {
		code, tag, body := getCached(t, p.path, "")
		want[i] = getOracle(t, p.path)
		if code != 200 || tag == "" || body != want[i] {
			t.Fatalf("%s: first fetch = %d etag %q, body equal to oracle: %v", p.path, code, tag, body == want[i])
		}
		held[i] = tag
	}

	ran := map[string]int{}
	kept := 0 // revalidations answered 304 across a write
	for n, st := range invalidationScript(rand.New(rand.NewSource(seed)), 300) {
		errC, errO := st.apply(cached), st.apply(oracle)
		if (errC == nil) != (errO == nil) {
			t.Fatalf("step %d %s: cached server returned %v, oracle %v", n, st.name, errC, errO)
		}
		ran[st.name]++

		var changed, flipped [numKinds]bool
		lastTag := ""
		for i, p := range invalidationProbes {
			now := getOracle(t, p.path)
			if _, _, body := getCached(t, p.path, ""); body != now {
				t.Fatalf("step %d %s: %s is stale:\n got  %q\n want %q", n, st.name, p.path, body, now)
			}
			code, tag, _ := getCached(t, p.path, held[i])
			switch {
			case code == 200:
				flipped[p.kind] = true
			case code != 304:
				t.Fatalf("step %d %s: %s revalidation = %d", n, st.name, p.path, code)
			case now != want[i]:
				t.Fatalf("step %d %s: %s answered 304 to tag %q though its body changed", n, st.name, p.path, held[i])
			default:
				kept++
			}
			if now != want[i] {
				changed[p.kind] = true
			}
			held[i], want[i], lastTag = tag, now, tag
		}
		for k := pageKind(0); k < numKinds; k++ {
			if flipped[k] && !changed[k] && !slices.Contains(st.coarse, k) {
				t.Fatalf("step %d %s: kind %d pages answered 200 though none changed", n, st.name, k)
			}
		}
		// One tag per host: whichever response it came from, it revalidates
		// every page until the next write.
		for _, p := range invalidationProbes {
			if code, _, _ := getCached(t, p.path, lastTag); code != 304 {
				t.Fatalf("step %d %s: %s = %d for the tag another page just issued (%q)", n, st.name, p.path, code, lastTag)
			}
		}
	}
	for _, name := range []string{"CreateAccount", "PostToot", "Boost", "FollowLocal", "FollowRemote",
		"Receive(Follow)", "Receive(Undo)", "Receive(Create)", "Receive(Boost)"} {
		if ran[name] == 0 {
			t.Errorf("the script never ran %s", name)
		}
	}
	if kept == 0 {
		t.Error("no revalidation survived a write: the script did not exercise the saving")
	}
}

// PostToot used to materialise its return value after appendFederated,
// which may compact the slab and renumber rows: out of range it panicked,
// in range it returned another toot.
func TestPostTootSurvivesCompaction(t *testing.T) {
	ctx := context.Background()
	s := NewServer(Config{Domain: "x.test", Open: true, MaxFederated: 4}, nil)
	if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
		t.Fatal(err)
	}
	remote := federation.Actor{User: "u1", Domain: "far.test"}
	posted := 0
	for i := 0; i < 200; i++ {
		if i%7 != 6 {
			if err := deliverNote(s, remote, i, fmt.Sprintf("remote %d", i)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		content := fmt.Sprintf("local %d", i)
		toot, err := s.PostToot(ctx, "alice", content, []string{"tag"}, t0)
		if err != nil {
			t.Fatal(err)
		}
		posted++
		wantNote := fmt.Sprintf("x.test/%d", i+1) // ids count every delivery and post
		if toot.Content != content || toot.NoteID != wantNote || toot.ID != int64(i+1) || toot.Author.User != "alice" {
			t.Fatalf("post %d returned %+v, want content %q note %q", i, *toot, content, wantNote)
		}
	}
	// The local timeline survived the compactions too.
	local := s.PublicTimeline(TimelineLocal, 0, 40)
	if len(local) != posted || local[0].Content != "local 195" {
		t.Fatalf("local timeline after compactions: %d toots, head %+v", len(local), local[0])
	}
}

// An Undo for a subscription that never existed used to decrement the
// domain's peer count all the same, erasing a peer that local users follow
// accounts on.
func TestUnsolicitedUndoKeepsPeer(t *testing.T) {
	ctx := context.Background()
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.FollowRemote(ctx, "alice", federation.Actor{User: "carol", Domain: "b.test"}); err != nil {
		t.Fatal(err)
	}
	get := memoryCondFetcher(s)
	_, tag, before := get(t, "/api/v1/instance/peers", "")
	if before != "[\"b.test\"]\n" {
		t.Fatalf("peers before the Undo: %q", before)
	}
	undo := &federation.Activity{
		Type:   federation.TypeUndo,
		From:   federation.Actor{User: "mallory", Domain: "b.test"},
		Target: federation.Actor{User: "alice", Domain: "x.test"},
	}
	if err := s.Receive(ctx, undo); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, "/api/v1/instance/peers", tag); code != 304 {
		t.Fatalf("an Undo that removed nothing flipped the peers page: %d", code)
	}
	if _, _, after := get(t, "/api/v1/instance/peers", ""); after != before {
		t.Fatalf("unsolicited Undo changed the peer list: %q -> %q", before, after)
	}

	// A real subscription and its Undo still add and release the peer.
	follow := *undo
	follow.Type = federation.TypeFollow
	follow.From.Domain = "c.test"
	if err := s.Receive(ctx, &follow); err != nil {
		t.Fatal(err)
	}
	if _, _, body := get(t, "/api/v1/instance/peers", ""); body != "[\"b.test\",\"c.test\"]\n" {
		t.Fatalf("peers after a Follow from c.test: %q", body)
	}
	undo.From.Domain = "c.test"
	if err := s.Receive(ctx, undo); err != nil {
		t.Fatal(err)
	}
	if code, _, body := get(t, "/api/v1/instance/peers", tag); code != 200 || body != before {
		t.Fatalf("peers after the matching Undo: %d %q, want 200 %q", code, body, before)
	}
}
