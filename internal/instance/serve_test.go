package instance

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/federation"
)

// populatedServer has something behind every GET endpoint: three accounts
// (one private), a follower list two pages long, and 50 local and 50 remote
// toots through a 32-slot federated ring, so trimming has run.
func populatedServer(tb testing.TB) *Server {
	tb.Helper()
	ctx := context.Background()
	s := NewServer(Config{Domain: "x.test", Open: true, MaxFederated: 32}, nil)
	for _, name := range []string{"alice", "bob", "priv"} {
		if _, err := s.CreateAccount(name, name == "priv", true, t0); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 45; i++ {
		err := s.Receive(ctx, &federation.Activity{
			Type:   federation.TypeFollow,
			From:   federation.Actor{User: fmt.Sprintf("f%d", i), Domain: fmt.Sprintf("far-%02d.test", i%7)},
			Target: federation.Actor{User: "alice", Domain: "x.test"},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	remote := federation.Actor{User: "u1", Domain: "far-00.test"}
	for i := 0; i < 50; i++ {
		if _, err := s.PostToot(ctx, "alice", fmt.Sprintf("toot %d", i), []string{"fediverse"}, t0); err != nil {
			tb.Fatal(err)
		}
		if err := deliverNote(s, remote, i, fmt.Sprintf("remote %d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// FuzzServeGET: whatever path, query and If-None-Match a client sends, an
// online server answers without panicking and without a 5xx, and answers
// 304 only to a request that carried If-None-Match.
func FuzzServeGET(f *testing.F) {
	f.Add("/users/alice/followers", "page=230584300921369397", "") // (page-1)*40 overflows int
	f.Add("/users/alice/followers", "page=0", "")
	f.Add("/users/alice/followers", "page=2", "*")
	f.Add("/api/v1/timelines/public", "limit=0", "")
	f.Add("/api/v1/timelines/public", "max_id=-1", "")
	f.Add("/api/v1/timelines/public", "local=true&since_id=9&max_id=3", "")
	f.Add("/api/v1/instance", "", `"g`+strings.Repeat("1.", 5000)+`"`)
	f.Add("/api/v1/instance/peers", "%zz", `W/"g0.0.0.0"`)
	f.Add("/inbox", "", "")
	f.Add("/", "", "")
	s := populatedServer(f)
	f.Fuzz(func(t *testing.T, path, query, inm string) {
		req := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: path, RawQuery: query},
			Host:   "x.test",
			Header: http.Header{},
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("GET %q ? %q: status %d from an online server", path, query, rec.Code)
		}
		if rec.Code == http.StatusNotModified && inm == "" {
			t.Fatalf("GET %q ? %q: 304 to a request without If-None-Match", path, query)
		}
	})
}

// BenchmarkServePage is one GET through ServeHTTP, per endpoint: replayed
// from the page cache (hit), rendered because a write came first (miss: every
// kind invalidated before each request), and revalidated with the tag the
// client holds (304). bench's instance.serve_200_us / serve_304_us are the
// same three seen from outside.
func BenchmarkServePage(b *testing.B) {
	s := populatedServer(b)
	for _, mode := range []string{"hit", "miss", "304"} {
		for _, page := range []struct{ name, path string }{
			{"timeline", "/api/v1/timelines/public?local=true&limit=40"},
			{"followers", "/users/alice/followers"},
			{"instance", "/api/v1/instance"},
		} {
			b.Run(mode+"/"+page.name, func(b *testing.B) {
				req := httptest.NewRequest(http.MethodGet, page.path, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				want := http.StatusOK
				if mode == "304" {
					req.Header.Set("If-None-Match", rec.Header().Get("Etag"))
					want = http.StatusNotModified
				}
				b.ReportAllocs()
				for b.Loop() {
					if mode == "miss" {
						s.pages.invalidate(kindMeta, kindLocal, kindFederated, kindFollowers)
					}
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != want {
						b.Fatalf("status %d, want %d", rec.Code, want)
					}
				}
			})
		}
	}
}
