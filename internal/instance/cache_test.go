package instance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/federation"
)

// The page-cache contract: a fetch, a mutation, and a re-fetch must show
// the mutation — over both the in-memory handler path (what simnet's
// MemoryTransport drives) and a real socket. The suite runs under -race in
// CI, so concurrent fetch+mutate interleavings are exercised too.

// fetcher abstracts the two transports.
type fetcher func(t *testing.T, path string) (int, string)

// memoryFetcher serves straight through ServeHTTP — no sockets.
func memoryFetcher(s *Server) fetcher {
	return func(t *testing.T, path string) (int, string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Host = s.Domain()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
}

// socketFetcher serves over a live httptest TCP server.
func socketFetcher(t *testing.T, s *Server) fetcher {
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return func(t *testing.T, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
}

func runCacheInvalidation(t *testing.T, get fetcher, s *Server) {
	ctx := context.Background()
	if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
		t.Fatal(err)
	}

	// Timeline: fetch, post, re-fetch.
	if _, body := get(t, "/api/v1/timelines/public?local=true"); strings.Contains(body, "first toot") {
		t.Fatal("toot visible before posting")
	}
	if _, err := s.PostToot(ctx, "alice", "first toot", nil, t0); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, "/api/v1/timelines/public?local=true"); code != 200 || !strings.Contains(body, "first toot") {
		t.Fatalf("timeline cache stale after PostToot: %d %q", code, body)
	}

	// Instance API stats: the same toot must show in status_count, and a
	// new account in user_count.
	if _, body := get(t, "/api/v1/instance"); !strings.Contains(body, `"user_count":1`) || !strings.Contains(body, `"status_count":1`) {
		t.Fatalf("instance API wrong before mutation: %q", body)
	}
	if _, err := s.CreateAccount("bob", false, true, t0); err != nil {
		t.Fatal(err)
	}
	if _, body := get(t, "/api/v1/instance"); !strings.Contains(body, `"user_count":2`) {
		t.Fatalf("instance API cache stale after CreateAccount: %q", body)
	}

	// Follower page: fetch, deliver a Follow to the inbox, re-fetch.
	if _, body := get(t, "/users/alice/followers"); strings.Contains(body, "far.test") {
		t.Fatal("follower visible before follow")
	}
	err := s.Receive(ctx, &federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: "u1", Domain: "far.test"},
		Target: federation.Actor{User: "alice", Domain: s.Domain()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, body := get(t, "/users/alice/followers"); !strings.Contains(body, "u1@far.test") {
		t.Fatalf("follower page cache stale after Follow: %q", body)
	}
	// The follow also changes the peers list and the instance stats.
	if _, body := get(t, "/api/v1/instance/peers"); !strings.Contains(body, "far.test") {
		t.Fatalf("peers cache stale after Follow: %q", body)
	}

	// Inbox delivery of a remote toot: the federated timeline must pick
	// it up.
	err = s.Receive(ctx, &federation.Activity{
		Type: federation.TypeCreate,
		From: federation.Actor{User: "u1", Domain: "far.test"},
		Note: &federation.Note{
			ID:        "far.test/1",
			Author:    federation.Actor{User: "u1", Domain: "far.test"},
			Content:   "remote toot",
			CreatedAt: t0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, body := get(t, "/api/v1/timelines/public"); !strings.Contains(body, "remote toot") {
		t.Fatalf("federated timeline cache stale after inbox delivery: %q", body)
	}

	// Homepage reflects the new counts too.
	if _, body := get(t, "/"); !strings.Contains(body, "2 users, 1 toots") {
		t.Fatalf("homepage cache stale: %q", body)
	}
}

func TestPageCacheInvalidationMemory(t *testing.T) {
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	runCacheInvalidation(t, memoryFetcher(s), s)
}

func TestPageCacheInvalidationSocket(t *testing.T) {
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	runCacheInvalidation(t, socketFetcher(t, s), s)
}

// TestPageCacheConcurrentFetchMutate races readers against writers; under
// -race this checks the cache's synchronisation, and afterwards a final
// fetch must observe the last mutation (no stale page survives a
// completed write).
func TestPageCacheConcurrentFetchMutate(t *testing.T) {
	s := NewServer(Config{Domain: "x.test", Open: true}, nil)
	if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
		t.Fatal(err)
	}
	get := memoryFetcher(s)
	const writers, toots = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < toots; i++ {
				if _, err := s.PostToot(context.Background(), "alice", "spin", nil, t0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < toots; i++ {
				get(t, "/api/v1/timelines/public?local=true&limit=40")
				get(t, "/api/v1/instance")
			}
		}()
	}
	wg.Wait()
	if _, body := get(t, "/api/v1/instance"); !strings.Contains(body, fmt.Sprintf(`"status_count":%d`, writers*toots)) {
		t.Fatalf("final instance API does not show all toots: %q", body)
	}
	var page []struct {
		ID string `json:"id"`
	}
	_, body := get(t, "/api/v1/timelines/public?local=true&limit=40")
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page) != 40 || page[0].ID != fmt.Sprint(writers*toots) {
		t.Fatalf("final timeline page stale: %d toots, first %q", len(page), page[0].ID)
	}
}

// TestResponsesByteIdenticalToEncodingJSON pins the cached wire-rendered
// responses against what the old encoding/json-based handlers produced.
func TestResponsesByteIdenticalToEncodingJSON(t *testing.T) {
	s := NewServer(Config{Domain: "x<&>.test", Open: true}, nil)
	s.CreateAccount("alice", false, false, t0)
	s.PostToot(context.Background(), "alice", `quote " <html> & back\slash`, []string{"tag<1>", "t2"}, t0)
	s.Receive(context.Background(), &federation.Activity{
		Type: federation.TypeBoost,
		From: federation.Actor{User: "u1", Domain: "far.test"},
		Note: &federation.Note{ID: "far.test/9", Author: federation.Actor{User: "u1", Domain: "far.test"}, CreatedAt: t0},
	})
	s.Receive(context.Background(), &federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: "u1", Domain: "far.test"},
		Target: federation.Actor{User: "alice", Domain: s.Domain()},
	})
	get := memoryFetcher(s)

	// /api/v1/instance against the old struct shape.
	type instanceStat struct {
		UserCount     int   `json:"user_count"`
		StatusCount   int64 `json:"status_count"`
		DomainCount   int   `json:"domain_count"`
		RemoteFollows int   `json:"remote_follows"`
	}
	type instanceInfo struct {
		URI           string       `json:"uri"`
		Title         string       `json:"title"`
		Version       string       `json:"version"`
		Registrations bool         `json:"registrations"`
		Stats         instanceStat `json:"stats"`
	}
	st := s.Stats()
	want := encodeOld(t, instanceInfo{
		URI: st.Domain, Title: st.Domain, Version: versionString(st), Registrations: st.Open,
		Stats: instanceStat{UserCount: st.Users, StatusCount: st.Statuses, DomainCount: st.Peers, RemoteFollows: st.RemoteFollows},
	})
	if _, body := get(t, "/api/v1/instance"); body != want {
		t.Fatalf("instance API diverges from encoding/json:\n got  %q\n want %q", body, want)
	}

	// Timeline against the old statusJSON shape.
	type accountJSON struct {
		Username string `json:"username"`
		Acct     string `json:"acct"`
	}
	type reblogJSON struct {
		URI string `json:"uri"`
	}
	type tagJSON struct {
		Name string `json:"name"`
	}
	type statusJSON struct {
		ID        string      `json:"id"`
		CreatedAt string      `json:"created_at"`
		Content   string      `json:"content"`
		Account   accountJSON `json:"account"`
		Reblog    *reblogJSON `json:"reblog,omitempty"`
		Tags      []tagJSON   `json:"tags,omitempty"`
	}
	toots := s.PublicTimeline(TimelineFederated, 0, 20)
	out := make([]statusJSON, len(toots))
	for i, toot := range toots {
		out[i] = statusJSON{
			ID:        fmt.Sprint(toot.ID),
			CreatedAt: toot.CreatedAt.UTC().Format("2006-01-02T15:04:05.000Z"),
			Content:   toot.Content,
			Account:   accountJSON{Username: toot.Author.User, Acct: toot.Author.String()},
		}
		if toot.BoostOf != "" {
			out[i].Reblog = &reblogJSON{URI: toot.BoostOf}
		}
		for _, h := range toot.Hashtags {
			out[i].Tags = append(out[i].Tags, tagJSON{Name: h})
		}
	}
	want = encodeOld(t, out)
	if _, body := get(t, "/api/v1/timelines/public"); body != want {
		t.Fatalf("timeline diverges from encoding/json:\n got  %q\n want %q", body, want)
	}

	// Peers list.
	want = encodeOld(t, []string{"far.test"})
	if _, body := get(t, "/api/v1/instance/peers"); body != want {
		t.Fatalf("peers diverge from encoding/json:\n got  %q\n want %q", body, want)
	}
}

// encodeOld reproduces writeJSON's json.Encoder output (trailing newline
// included).
func encodeOld(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
