package instance

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/wire"
)

// buildStreamServer populates a server with every shape the timeline
// encoder has to handle: unicode and JSON-hostile content, hashtags,
// boosts of remote notes, remote toots arriving over federation, a
// private local author (excluded), and an empty-content toot.
func buildStreamServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	ctx := context.Background()
	s := NewServer(cfg, nil)
	at := time.Date(2017, 4, 1, 12, 0, 0, 0, time.UTC)
	for _, acct := range []struct {
		name    string
		private bool
	}{{"alice", false}, {"bob", false}, {"carol", true}} {
		if _, err := s.CreateAccount(acct.name, acct.private, false, at); err != nil {
			t.Fatal(err)
		}
	}
	post := func(author, content string, tags []string) {
		at = at.Add(time.Minute)
		if _, err := s.PostToot(ctx, author, content, tags, at); err != nil {
			t.Fatal(err)
		}
	}
	post("alice", "plain ascii toot", nil)
	post("bob", `quotes " backslash \ newline`+"\n tab \t done`", nil)
	post("alice", "unicode: 世界 🦣 café — line\u2028sep \u2029 ps", []string{"fediverse", "caf\u00e9"})
	post("carol", "private content must never appear", []string{"secret"})
	post("bob", "", []string{"empty"}) // empty content still encodes as ""
	post("alice", "<script>alert('x')</script> & ampersand", []string{"a", "b", "c"})

	// A boost of a remote note: BoostOf set, no content.
	at = at.Add(time.Minute)
	orig := federation.Actor{User: "eve", Domain: "remote.test"}
	if err := s.Boost(ctx, "bob", "https://remote.test/notes/42", orig, at); err != nil {
		t.Fatal(err)
	}

	// Remote toots delivered over federation land only in the federated
	// timeline and bypass the private-author check.
	for i, content := range []string{"remote unicode ⓘ", `remote "quoted"`} {
		at = at.Add(time.Minute)
		err := s.Receive(ctx, &federation.Activity{
			Type: federation.TypeCreate,
			From: orig,
			Note: &federation.Note{
				ID:        fmt.Sprintf("https://remote.test/notes/%d", 100+i),
				Author:    orig,
				Content:   content,
				Hashtags:  []string{"remote"},
				CreatedAt: at,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	post("alice", "newest toot, after the remote ones", nil)
	return s
}

// refTimelineBody is the materialised render the streamed encoder
// replaced: the page as []Toot, then []wire.Status, then
// wire.AppendStatuses — the reference appendTimelineJSON is held to.
func refTimelineBody(s *Server, kind Timeline, maxID, sinceID int64, limit int) string {
	toots := s.PublicTimelineSince(kind, maxID, sinceID, limit)
	page := make([]wire.Status, len(toots))
	for i, t := range toots {
		page[i] = wire.Status{
			ID:        strconv.FormatInt(t.ID, 10),
			CreatedAt: t.CreatedAt.UTC().Format("2006-01-02T15:04:05.000Z"),
			Content:   t.Content,
			Account:   wire.StatusAccount{Username: t.Author.User, Acct: t.Author.String()},
		}
		if t.BoostOf != "" {
			page[i].Reblog = &wire.StatusReblog{URI: t.BoostOf}
		}
		for _, h := range t.Hashtags {
			page[i].Tags = append(page[i].Tags, wire.StatusTag{Name: h})
		}
	}
	return string(append(wire.AppendStatuses(nil, page), '\n'))
}

// TestTimelineStreamByteIdentity pins the streamed timeline encoder to the
// materialised reference: the server's response must be byte-identical to
// refTimelineBody for every selection-parameter combination.
func TestTimelineStreamByteIdentity(t *testing.T) {
	s := buildStreamServer(t, Config{Domain: "stream.test", Open: true})

	for _, q := range []struct {
		query          string
		kind           Timeline
		maxID, sinceID int64
		limit          int
	}{
		{"", TimelineFederated, 0, 0, 20},
		{"?local=true", TimelineLocal, 0, 0, 20},
		{"?limit=1", TimelineFederated, 0, 0, 1},
		{"?limit=3", TimelineFederated, 0, 0, 3},
		{"?limit=40", TimelineFederated, 0, 0, 40},
		{"?limit=100", TimelineFederated, 0, 0, 40}, // clamped to 40 server-side
		{"?max_id=5", TimelineFederated, 5, 0, 20},
		{"?max_id=5&local=true", TimelineLocal, 5, 0, 20},
		{"?since_id=3", TimelineFederated, 0, 3, 20},
		{"?since_id=3&limit=2", TimelineFederated, 0, 3, 2},
		{"?max_id=8&since_id=2&limit=4", TimelineFederated, 8, 2, 4},
		{"?max_id=1", TimelineFederated, 1, 0, 20}, // empty page must still be []
		{"?local=1&limit=7", TimelineLocal, 0, 0, 7},
	} {
		path := "/api/v1/timelines/public" + q.query
		got := fetchBody(t, s, path)
		want := refTimelineBody(s, q.kind, q.maxID, q.sinceID, q.limit)
		if got != want {
			t.Errorf("%s:\n  streamed:     %q\n  materialised: %q", path, got, want)
		}
	}

	// The private author's content must be absent.
	for _, q := range []string{"", "?local=true"} {
		if body := fetchBody(t, s, "/api/v1/timelines/public"+q); strings.Contains(body, "private content") {
			t.Errorf("streamed timeline leaked a private author's toot")
		}
	}
}

func fetchBody(t *testing.T, s *Server, path string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Host = s.Domain()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}
