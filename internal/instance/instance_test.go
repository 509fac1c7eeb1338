package instance

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/wire"
)

var t0 = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// pair wires two servers over an in-process bus.
func pair(t *testing.T) (*Server, *Server, *federation.Bus) {
	t.Helper()
	bus := federation.NewBus()
	a := NewServer(Config{Domain: "a.test", Open: true}, bus)
	b := NewServer(Config{Domain: "b.test", Open: true}, bus)
	bus.Register(a)
	bus.Register(b)
	return a, b, bus
}

func TestCreateAccount(t *testing.T) {
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateAccount("alice", false, false, t0); err == nil {
		t.Fatal("duplicate account allowed")
	}
	closed := NewServer(Config{Domain: "y.test", Open: false}, nil)
	if _, err := closed.CreateAccount("bob", false, false, t0); err == nil {
		t.Fatal("closed instance accepted self sign-up")
	}
	if _, err := closed.CreateAccount("bob", false, true, t0); err != nil {
		t.Fatalf("invite should work: %v", err)
	}
	if closed.Account("bob") == nil || closed.Stats().Users != 1 {
		t.Fatalf("accounts after invite: stats = %+v", closed.Stats())
	}
}

func TestPostTootAndTimelines(t *testing.T) {
	ctx := context.Background()
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	s.CreateAccount("alice", false, false, t0)
	for i := 0; i < 5; i++ {
		if _, err := s.PostToot(ctx, "alice", "hello", nil, t0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.PostToot(ctx, "ghost", "boo", nil, t0); err == nil {
		t.Fatal("post by unknown account allowed")
	}
	st := s.Stats()
	if st.Statuses != 5 || st.Users != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Newest first, paged by max_id.
	page := s.PublicTimeline(TimelineLocal, 0, 3)
	if len(page) != 3 || page[0].ID != 5 || page[2].ID != 3 {
		t.Fatalf("page1 ids: %d %d %d", page[0].ID, page[1].ID, page[2].ID)
	}
	page2 := s.PublicTimeline(TimelineLocal, page[2].ID, 3)
	if len(page2) != 2 || page2[0].ID != 2 || page2[1].ID != 1 {
		t.Fatalf("page2 = %v", page2)
	}
	if got := s.PublicTimeline(TimelineLocal, 1, 3); len(got) != 0 {
		t.Fatal("paging past the oldest toot should be empty")
	}
}

func TestPrivateAccountsHiddenFromTimeline(t *testing.T) {
	ctx := context.Background()
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	s.CreateAccount("alice", false, false, t0)
	s.CreateAccount("secret", true, false, t0)
	s.PostToot(ctx, "alice", "public", nil, t0)
	s.PostToot(ctx, "secret", "hidden", nil, t0)
	page := s.PublicTimeline(TimelineLocal, 0, 10)
	if len(page) != 1 || page[0].Author.User != "alice" {
		t.Fatalf("timeline = %+v", page)
	}
	// But the instance stats count both.
	if s.Stats().Statuses != 2 {
		t.Fatalf("statuses = %d", s.Stats().Statuses)
	}
}

func TestFederatedFollowAndPush(t *testing.T) {
	ctx := context.Background()
	a, b, _ := pair(t)
	a.CreateAccount("alice", false, false, t0)
	b.CreateAccount("bob", false, false, t0)

	// bob@b follows alice@a: b sends a Follow to a, installing a
	// subscription of b.test to alice.
	if err := b.FollowRemote(ctx, "bob", federation.Actor{User: "alice", Domain: "a.test"}); err != nil {
		t.Fatal(err)
	}
	if got := a.FollowerCount("alice"); got != 1 {
		t.Fatalf("alice followers = %d", got)
	}
	if st := b.Stats(); st.RemoteFollows != 1 || st.Peers != 1 {
		t.Fatalf("b stats = %+v", st)
	}

	// alice toots: the toot must land on b's federated timeline.
	if _, err := a.PostToot(ctx, "alice", "federated hello", []string{"hi"}, t0); err != nil {
		t.Fatal(err)
	}
	fed := b.PublicTimeline(TimelineFederated, 0, 10)
	if len(fed) != 1 || !fed[0].Remote || fed[0].Author.String() != "alice@a.test" {
		t.Fatalf("federated timeline = %+v", fed)
	}
	// And not on b's local timeline.
	if got := b.PublicTimeline(TimelineLocal, 0, 10); len(got) != 0 {
		t.Fatal("remote toot leaked into local timeline")
	}
}

func TestFollowUnknownRemoteAccount(t *testing.T) {
	ctx := context.Background()
	a, b, _ := pair(t)
	b.CreateAccount("bob", false, false, t0)
	err := b.FollowRemote(ctx, "bob", federation.Actor{User: "nobody", Domain: "a.test"})
	if err == nil {
		t.Fatal("expected error for unknown remote account")
	}
	_ = a
}

func TestBoostFederation(t *testing.T) {
	ctx := context.Background()
	a, b, _ := pair(t)
	a.CreateAccount("alice", false, false, t0)
	b.CreateAccount("bob", false, false, t0)
	// alice follows bob@b so that bob's boosts reach a.test.
	if err := a.FollowRemote(ctx, "alice", federation.Actor{User: "bob", Domain: "b.test"}); err != nil {
		t.Fatal(err)
	}
	orig, _ := b.PostToot(ctx, "bob", "original", nil, t0)
	if err := b.Boost(ctx, "bob", orig.NoteID, orig.Author, t0); err != nil {
		t.Fatal(err)
	}
	if b.Stats().Boosts != 1 {
		t.Fatalf("boosts = %d", b.Stats().Boosts)
	}
	// a.test got the Create and the Announce.
	fed := a.PublicTimeline(TimelineFederated, 0, 10)
	if len(fed) != 2 {
		t.Fatalf("a federated = %d entries", len(fed))
	}
	var sawBoost bool
	for _, tt := range fed {
		if tt.BoostOf != "" {
			sawBoost = true
		}
	}
	if !sawBoost {
		t.Fatal("no boost entry on remote federated timeline")
	}
}

func TestFollowersPaging(t *testing.T) {
	ctx := context.Background()
	a, b, _ := pair(t)
	a.CreateAccount("celebrity", false, false, t0)
	for i := 0; i < 95; i++ {
		name := UserName(int32(i))
		b.CreateAccount(name, false, false, t0)
		if err := b.FollowRemote(ctx, name, federation.Actor{User: "celebrity", Domain: "a.test"}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(path string) (code, followers int, more bool) {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		wire.ScanFollowerPage(rec.Body.Bytes(), func(_, _ []byte) { followers++ })
		return rec.Code, followers, wire.FollowerPageHasNext(rec.Body.Bytes())
	}
	all := 0
	for page := 1; ; page++ {
		code, n, more := get("/users/celebrity/followers?page=" + strconv.Itoa(page))
		if code != http.StatusOK {
			t.Fatalf("page %d: status %d", page, code)
		}
		all += n
		if !more {
			break
		}
	}
	if all != 95 {
		t.Fatalf("followers = %d, want 95", all)
	}
	if code, _, _ := get("/users/ghost/followers"); code != http.StatusNotFound {
		t.Fatalf("unknown account: status %d, want 404", code)
	}
	if code, n, more := get("/users/celebrity/followers?page=99"); code != http.StatusOK || n != 0 || more {
		t.Fatal("past-the-end page should be empty")
	}
}

func TestLocalFollow(t *testing.T) {
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	s.CreateAccount("alice", false, false, t0)
	s.CreateAccount("bob", false, false, t0)
	if err := s.FollowLocal("bob", "alice"); err != nil {
		t.Fatal(err)
	}
	if s.FollowerCount("alice") != 1 || s.FollowerCount("bob") != 0 {
		t.Fatal("local follow not recorded")
	}
	if err := s.FollowLocal("ghost", "alice"); err == nil {
		t.Fatal("unknown follower accepted")
	}
	if err := s.FollowLocal("alice", "ghost"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestOnlineToggle(t *testing.T) {
	s := NewServer(Config{Domain: "x.test"}, nil)
	if !s.Online() {
		t.Fatal("new server should be online")
	}
	s.SetOnline(false)
	if s.Online() {
		t.Fatal("SetOnline(false) ignored")
	}
}

func TestFederatedTimelineCap(t *testing.T) {
	ctx := context.Background()
	s := NewServer(Config{Domain: "x.test", Open: true, MaxFederated: 10}, nil)
	s.CreateAccount("alice", false, false, t0)
	for i := 0; i < 25; i++ {
		s.PostToot(ctx, "alice", "x", nil, t0)
	}
	if got := len(s.PublicTimeline(TimelineFederated, 0, 40)); got != 10 {
		t.Fatalf("federated kept %d, want 10", got)
	}
	// Local history is never trimmed.
	if got := len(s.PublicTimeline(TimelineLocal, 0, 40)); got != 25 {
		t.Fatalf("local kept %d, want 25", got)
	}
}

func TestReceiveValidation(t *testing.T) {
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	if err := s.Receive(context.Background(), &federation.Activity{Type: "Bogus"}); err == nil {
		t.Fatal("invalid activity accepted")
	}
	err := s.Receive(context.Background(), &federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: "a", Domain: "b.test"},
		Target: federation.Actor{User: "ghost", Domain: "x.test"},
	})
	if err == nil {
		t.Fatal("follow of unknown local account accepted")
	}
}

func TestUndoUnsubscribes(t *testing.T) {
	ctx := context.Background()
	a, b, _ := pair(t)
	a.CreateAccount("alice", false, false, t0)
	b.CreateAccount("bob", false, false, t0)
	b.FollowRemote(ctx, "bob", federation.Actor{User: "alice", Domain: "a.test"})
	// Undo the subscription.
	err := a.Receive(ctx, &federation.Activity{
		Type:   federation.TypeUndo,
		From:   federation.Actor{User: "bob", Domain: "b.test"},
		Target: federation.Actor{User: "alice", Domain: "a.test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.PostToot(ctx, "alice", "after undo", nil, t0)
	if got := b.PublicTimeline(TimelineFederated, 0, 10); len(got) != 0 {
		t.Fatalf("toot delivered after undo: %v", got)
	}
}
