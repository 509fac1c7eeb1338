package instance

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/federation"
)

// liveServer spins up one instance over HTTP.
func liveServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestHTTPInstanceAPI(t *testing.T) {
	s, ts := liveServer(t, Config{Domain: "x.test", Open: true})
	s.CreateAccount("alice", false, false, t0)
	s.PostToot(context.Background(), "alice", "hi", nil, t0)

	code, body := get(t, ts, "/api/v1/instance")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var info struct {
		URI           string `json:"uri"`
		Registrations bool   `json:"registrations"`
		Stats         struct {
			UserCount   int   `json:"user_count"`
			StatusCount int64 `json:"status_count"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.URI != "x.test" || !info.Registrations || info.Stats.UserCount != 1 || info.Stats.StatusCount != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestHTTPHomepageAndProbe(t *testing.T) {
	s, ts := liveServer(t, Config{Domain: "x.test", Open: true})
	if code, body := get(t, ts, "/about"); code != 200 || !strings.Contains(body, "x.test") {
		t.Fatalf("homepage: %d %q", code, body)
	}
	// Offline → 503 everywhere (the probe signal).
	s.SetOnline(false)
	if code, _ := get(t, ts, "/about"); code != 503 {
		t.Fatalf("offline status = %d, want 503", code)
	}
	if code, _ := get(t, ts, "/api/v1/instance"); code != 503 {
		t.Fatalf("offline API status = %d, want 503", code)
	}
}

func TestHTTPTimelinePagingAndValidation(t *testing.T) {
	s, ts := liveServer(t, Config{Domain: "x.test", Open: true})
	s.CreateAccount("alice", false, false, t0)
	for i := 0; i < 60; i++ {
		s.PostToot(context.Background(), "alice", fmt.Sprintf("t%d", i), nil, t0)
	}
	code, body := get(t, ts, "/api/v1/timelines/public?local=true&limit=40")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var page []struct {
		ID      string `json:"id"`
		Account struct {
			Acct string `json:"acct"`
		} `json:"account"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page) != 40 {
		t.Fatalf("page = %d toots (Mastodon caps at 40)", len(page))
	}
	if page[0].ID != "60" || page[0].Account.Acct != "alice@x.test" {
		t.Fatalf("first = %+v", page[0])
	}
	// limit above the cap is clamped, not an error.
	if code, _ := get(t, ts, "/api/v1/timelines/public?limit=999"); code != 200 {
		t.Fatalf("oversized limit rejected: %d", code)
	}
	// Malformed query parameters are 400s.
	for _, q := range []string{"max_id=abc", "max_id=-4", "limit=0", "limit=x", "since_id=abc", "since_id=-1"} {
		if code, _ := get(t, ts, "/api/v1/timelines/public?"+q); code != 400 {
			t.Fatalf("query %q: status %d, want 400", q, code)
		}
	}
}

// TestHTTPTimelineSinceID: the delta-crawl lower bound. A recrawl resuming
// from a high-water mark must get exactly the toots that appeared after
// it, newest first, and the cached page for a since_id query must not
// shadow (or be shadowed by) the unbounded page.
func TestHTTPTimelineSinceID(t *testing.T) {
	s, ts := liveServer(t, Config{Domain: "x.test", Open: true})
	s.CreateAccount("alice", false, false, t0)
	for i := 0; i < 10; i++ {
		s.PostToot(context.Background(), "alice", fmt.Sprintf("t%d", i), nil, t0)
	}
	decode := func(body string) []struct {
		ID string `json:"id"`
	} {
		var page []struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	code, body := get(t, ts, "/api/v1/timelines/public?local=true&limit=40&since_id=7")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if page := decode(body); len(page) != 3 || page[0].ID != "10" || page[2].ID != "8" {
		t.Fatalf("since_id=7 page = %+v, want ids 10,9,8", page)
	}
	// The unbounded page renders independently of the cached delta page.
	if _, body := get(t, ts, "/api/v1/timelines/public?local=true&limit=40"); len(decode(body)) != 10 {
		t.Fatal("unbounded page shadowed by a cached since_id page")
	}
	// since_id at (or past) the newest toot is an empty page, not an error.
	if code, body := get(t, ts, "/api/v1/timelines/public?local=true&since_id=10"); code != 200 || len(decode(body)) != 0 {
		t.Fatalf("since_id=newest: %d %q", code, body)
	}
	// since_id composes with max_id paging: the window (2, 5) exclusive.
	if _, body := get(t, ts, "/api/v1/timelines/public?local=true&since_id=2&max_id=5"); len(decode(body)) != 2 {
		t.Fatalf("since_id+max_id window = %s", body)
	}
	// New content past the mark invalidates the cached delta page.
	s.PostToot(context.Background(), "alice", "fresh", nil, t0)
	if _, body := get(t, ts, "/api/v1/timelines/public?local=true&limit=40&since_id=7"); len(decode(body)) != 4 {
		t.Fatalf("cached since_id page served stale after a post: %s", body)
	}
}

func TestHTTPTimelineBlocked(t *testing.T) {
	_, ts := liveServer(t, Config{Domain: "x.test", Open: true, BlocksCrawl: true})
	if code, _ := get(t, ts, "/api/v1/timelines/public"); code != 403 {
		t.Fatalf("status = %d, want 403", code)
	}
	// The instance API stays open — only timeline crawling is refused.
	if code, _ := get(t, ts, "/api/v1/instance"); code != 200 {
		t.Fatalf("instance API status = %d", code)
	}
}

func TestHTTPFollowersPage(t *testing.T) {
	s, ts := liveServer(t, Config{Domain: "x.test", Open: true})
	s.CreateAccount("alice", false, false, t0)
	for i := 0; i < 45; i++ {
		s.Receive(context.Background(), &federation.Activity{
			Type:   federation.TypeFollow,
			From:   federation.Actor{User: fmt.Sprintf("u%d", i), Domain: "far.test"},
			Target: federation.Actor{User: "alice", Domain: "x.test"},
		})
	}
	code, body := get(t, ts, "/users/alice/followers")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if got := strings.Count(body, `class="follower"`); got != 40 {
		t.Fatalf("page 1 has %d links, want 40", got)
	}
	if !strings.Contains(body, `rel="next"`) {
		t.Fatal("page 1 missing next link")
	}
	code, body = get(t, ts, "/users/alice/followers?page=2")
	if got := strings.Count(body, `class="follower"`); code != 200 || got != 5 {
		t.Fatalf("page 2: %d links (status %d)", got, code)
	}
	if strings.Contains(body, `rel="next"`) {
		t.Fatal("last page should have no next link")
	}
	if code, _ := get(t, ts, "/users/ghost/followers"); code != 404 {
		t.Fatalf("unknown account: %d", code)
	}
	if code, _ := get(t, ts, "/users/alice/followers?page=zero"); code != 400 {
		t.Fatalf("bad page: %d", code)
	}
}

func TestHTTPInboxEndpoint(t *testing.T) {
	s, ts := liveServer(t, Config{Domain: "x.test", Open: true})
	s.CreateAccount("alice", false, false, t0)
	act := &federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: "bob", Domain: "b.test"},
		Target: federation.Actor{User: "alice", Domain: "x.test"},
	}
	body, _ := act.Encode()
	resp, err := http.Post(ts.URL+"/inbox", "application/activity+json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if s.FollowerCount("alice") != 1 {
		t.Fatal("follow not applied")
	}
	// GET on the inbox is rejected.
	if code, _ := get(t, ts, "/inbox"); code != 405 {
		t.Fatalf("GET inbox: %d, want 405", code)
	}
	// Garbage body is a 400.
	resp, _ = http.Post(ts.URL+"/inbox", "application/activity+json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage inbox: %d, want 400", resp.StatusCode)
	}
	// Valid activity that fails to apply is a 422.
	bad, _ := (&federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: "bob", Domain: "b.test"},
		Target: federation.Actor{User: "ghost", Domain: "x.test"},
	}).Encode()
	resp, _ = http.Post(ts.URL+"/inbox", "application/activity+json", strings.NewReader(string(bad)))
	resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Fatalf("unprocessable inbox: %d, want 422", resp.StatusCode)
	}
	// A body over the limit is a 413 even when what fits in the limit is a
	// whole, valid activity: nothing of it is delivered.
	carol, _ := (&federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: "carol", Domain: "b.test"},
		Target: federation.Actor{User: "alice", Domain: "x.test"},
	}).Encode()
	resp, _ = http.Post(ts.URL+"/inbox", "application/activity+json",
		strings.NewReader(string(carol)+strings.Repeat(" ", maxInboxBody+1-len(carol))))
	resp.Body.Close()
	if resp.StatusCode != 413 || s.FollowerCount("alice") != 1 {
		t.Fatalf("oversized inbox: %d with %d followers, want 413 with 1", resp.StatusCode, s.FollowerCount("alice"))
	}
}

func TestHTTPNotFound(t *testing.T) {
	_, ts := liveServer(t, Config{Domain: "x.test"})
	if code, _ := get(t, ts, "/api/v2/everything"); code != 404 {
		t.Fatalf("status %d", code)
	}
}

func TestNetworkHostRouting(t *testing.T) {
	n := NewNetwork()
	a := n.Add(Config{Domain: "a.test", Open: true})
	n.Add(Config{Domain: "b.test", Open: true})
	a.CreateAccount("alice", false, false, t0)
	ts := httptest.NewServer(n)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/instance", nil)
	req.Host = "a.test"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"uri":"a.test"`) {
		t.Fatalf("a.test: %d %s", resp.StatusCode, body)
	}
	// Unknown host → 502.
	req.Host = "nowhere.test"
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 502 {
		t.Fatalf("unknown host: %d, want 502", resp.StatusCode)
	}
	if n.Server("b.test") == nil || n.Server("zzz") != nil {
		t.Fatal("Server lookup wrong")
	}
	if len(n.Domains()) != 2 {
		t.Fatal("Domains wrong")
	}
}

func TestLoadWorldPeersEndpoint(t *testing.T) {
	// LoadWorld is exercised end-to-end in internal/crawler's integration
	// tests; here just check the peers endpoint shape on a hand-built net.
	n := NewNetwork()
	a := n.Add(Config{Domain: "a.test", Open: true})
	b := n.Add(Config{Domain: "b.test", Open: true})
	a.CreateAccount("alice", false, false, t0)
	b.CreateAccount("bob", false, false, t0)
	if err := b.FollowRemote(context.Background(), "bob", federation.Actor{User: "alice", Domain: "a.test"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/instance/peers", nil)
	req.Host = "b.test"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var peers []string
	json.NewDecoder(resp.Body).Decode(&peers)
	resp.Body.Close()
	if len(peers) != 1 || peers[0] != "a.test" {
		t.Fatalf("peers = %v", peers)
	}
}
