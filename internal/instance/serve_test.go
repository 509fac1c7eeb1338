package instance

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/wire"
)

// populatedServer has something behind every GET endpoint: three accounts
// (one private), a follower list two pages long, and 50 local and 50 remote
// toots through a 32-slot federated ring, so trimming has run.
func populatedServer(tb testing.TB) *Server {
	tb.Helper()
	s := NewServer(populatedConfig, nil)
	populate(tb, s)
	return s
}

var populatedConfig = Config{Domain: "x.test", Open: true, MaxFederated: 32}

func populate(tb testing.TB, s *Server) {
	tb.Helper()
	ctx := context.Background()
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

// FuzzInboxPOST: whatever Host, method and body reach /inbox through the
// network's Host routing, nothing panics and the status is one the handlers
// document (502 is Network.ServeHTTP's answer to an unknown Host). A body
// over the inbox limit is never a 202, and a POST of one to a live instance
// is a 413. A 202 means that the body decodes to a valid activity from a
// domain that is not blocked, and after a 202 no page is staler than its
// tag: every page equals its re-render with the whole cache invalidated,
// and no served created_at precedes 1970 unless the accepted note was sent
// with such a time.
func FuzzInboxPOST(f *testing.F) {
	from := federation.Actor{User: "u1", Domain: "far-00.test"}
	alice := federation.Actor{User: "alice", Domain: "x.test"}
	note := &federation.Note{ID: "far-00.test/900", Author: from, Content: "hi", Hashtags: []string{"a", "b"}, CreatedAt: t0}
	encode := func(a *federation.Activity) []byte {
		b, err := a.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, a := range []*federation.Activity{
		{Type: federation.TypeCreate, From: from, Note: note},
		{Type: federation.TypeFollow, From: from, Target: alice},
		{Type: federation.TypeUndo, From: from, Target: alice},
	} {
		body := encode(a)
		f.Add("x.test", http.MethodPost, body)
		for i, c := range body { // cut at every field boundary
			if c == ',' || c == '{' || c == '}' {
				f.Add("x.test", http.MethodPost, body[:i])
			}
		}
	}
	follow := encode(&federation.Activity{Type: federation.TypeFollow, From: from, Target: alice})
	f.Add("x.test", http.MethodPost, []byte(`{"type":"Like","from":{"user":"u1","domain":"far-00.test"}}`))
	f.Add("x.test", http.MethodPost, append(follow, bytes.Repeat([]byte(" "), maxInboxBody-len(follow))...))   // valid, exactly at the limit
	f.Add("x.test", http.MethodPost, append(follow, bytes.Repeat([]byte(" "), maxInboxBody+1-len(follow))...)) // valid, one byte over it
	big := encode(&federation.Activity{Type: federation.TypeCreate, From: from,
		Note: &federation.Note{ID: "far-00.test/901", Author: from, Content: strings.Repeat("a", 1<<20)}})
	f.Add("x.test", http.MethodPost, big[:maxInboxBody+1])
	f.Add("x.test", http.MethodPost, encode(&federation.Activity{Type: federation.TypeCreate,
		From: federation.Actor{User: "u2", Domain: "blocked.test"}, Note: note}))
	for _, at := range []time.Time{{}, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)} { // undated, and past UnixNano's range
		f.Add("x.test", http.MethodPost, encode(&federation.Activity{Type: federation.TypeCreate, From: from,
			Note: &federation.Note{ID: "far-00.test/902", Author: from, Content: "when?", CreatedAt: at}}))
		f.Add("x.test", http.MethodPost, encode(&federation.Activity{Type: federation.TypeBoost, From: from,
			Note: &federation.Note{ID: "x.test/1", Author: alice, CreatedAt: at}}))
	}
	f.Add("x.test", http.MethodPost, []byte(`{"type":"Create","from":{"user":"u1","domain":"far-00.test"},"note":{"id":"far-00.test/903","author":{"user":"u1","domain":"far-00.test"}}}`))
	f.Add("nowhere.test", http.MethodPost, follow)
	f.Add("down.test", http.MethodPost, follow)
	f.Add("x.test:8080", http.MethodGet, follow)

	pages := []string{"/api/v1/timelines/public?limit=40", "/api/v1/timelines/public?local=true",
		"/users/alice/followers", "/users/alice/followers?page=2", "/api/v1/instance", "/api/v1/instance/peers"}
	f.Fuzz(func(t *testing.T, host, method string, body []byte) {
		n := NewNetwork()
		s := n.Add(populatedConfig)
		populate(t, s)
		s.BlockDomain("blocked.test", true)
		n.Add(Config{Domain: "down.test"}).SetOnline(false)
		render := func() []string {
			out := make([]string, len(pages))
			for i, p := range pages {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, p, nil)
				req.Host = "x.test"
				n.ServeHTTP(rec, req)
				out[i] = rec.Body.String()
			}
			return out
		}
		render() // every page is cached before the write arrives

		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, &http.Request{
			Method: method,
			URL:    &url.URL{Path: "/inbox"},
			Host:   host,
			Header: http.Header{},
			Body:   io.NopCloser(bytes.NewReader(body)),
		})
		over := len(body) > maxInboxBody
		if over && rec.Code == http.StatusAccepted {
			t.Fatalf("202 for a body of %d bytes, over the limit", len(body))
		}
		if is413 := rec.Code == http.StatusRequestEntityTooLarge; is413 && !over ||
			!is413 && over && host == "x.test" && method == http.MethodPost {
			t.Fatalf("%s /inbox on %q with a %d-byte body: status %d", method, host, len(body), rec.Code)
		}
		switch rec.Code {
		case http.StatusAccepted:
			a, err := wire.DecodeActivity(body)
			if err != nil {
				t.Fatalf("202 for a body that does not decode to a valid activity: %v", err)
			}
			if a.From.Domain == "blocked.test" {
				t.Fatal("202 for an activity from a blocked domain")
			}
			cached := render()
			s.pages.invalidate(kindMeta, kindLocal, kindFederated, kindFollowers)
			for i, fresh := range render() {
				if cached[i] != fresh {
					t.Fatalf("after a %s, GET %s served a page older than the write (%d bytes, re-rendered %d)",
						a.Type, pages[i], len(cached[i]), len(fresh))
				}
			}
			floor := time.Unix(0, 0)
			if a.Note != nil && a.Note.CreatedAt.Before(floor) {
				floor = a.Note.CreatedAt.Add(-time.Millisecond) // served to the millisecond
			}
			for _, page := range cached[:2] { // the two timelines
				if err := wire.ScanStatuses([]byte(page), func(v *wire.StatusView) {
					if at, err := time.Parse(time.RFC3339, string(v.CreatedAt)); err != nil || at.Before(floor) {
						t.Fatalf("after a %s, a status is served with created_at %q", a.Type, v.CreatedAt)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusRequestEntityTooLarge:
		case http.StatusMethodNotAllowed:
			if method == http.MethodPost {
				t.Fatal("405 to a POST")
			}
		case http.StatusBadGateway, http.StatusServiceUnavailable:
			if host == "x.test" {
				t.Fatalf("status %d from an online, hosted instance", rec.Code)
			}
		default:
			t.Fatalf("%s /inbox on %q: status %d", method, host, rec.Code)
		}
	})
}

// FuzzQueryGet holds the handlers' query reader to the one it stands in
// for, r.URL.Query().Get — url.ParseQuery with its error dropped — on any
// raw query and key, and checks that what a crawler sends is read in place.
func FuzzQueryGet(f *testing.F) {
	for _, raw := range []string{
		"local=true&limit=40&since_id=5&max_id=123456789", "page=3", "", "&&page=2&", "page", "page=", "=page", "=",
		"page=1&page=2", "&=x&=y", "a=b=c&b==", "limit=4%30", "limit=4+0", "page=1;limit=2", "limit=%zz&page=2", "%70age=2", "p+q=1&p q=2",
	} {
		for _, key := range []string{"page", "limit", "max_id", "", "a", "p q"} {
			f.Add(raw, key)
		}
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		want, _ := url.ParseQuery(raw)
		q := queryOf(raw)
		if got := q.Get(key); got != want.Get(key) {
			t.Fatalf("query %q: Get(%q) = %q, url.ParseQuery has %q", raw, key, got, want.Get(key))
		}
		for k, vs := range want {
			if got := q.Get(k); got != vs[0] {
				t.Fatalf("query %q: Get(%q) = %q, url.ParseQuery has %q", raw, k, got, vs[0])
			}
		}
		if (q.parsed == nil) != !strings.ContainsAny(raw, "%+;") {
			t.Fatalf("query %q: parsed=%v", raw, q.parsed != nil)
		}
	})
}

// BenchmarkServePage is one GET through ServeHTTP, per endpoint: served warm
// (hit: a meta page replayed from its slot, a timeline page joined from
// memoised renders), served after a write came first (miss: every kind
// invalidated before each request, no status render memoised anew), and
// revalidated with the tag the client holds (304). overlap is the miss an
// inbox delivery causes: the federated head page after one delivery, every
// status on it but the newest already rendered. bench's
// instance.serve_200_us / serve_304_us are the same seen from outside.
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
	b.Run("overlap/timeline", func(b *testing.B) {
		s := NewServer(Config{Domain: populatedConfig.Domain, Open: true}, nil) // no trim, so no compaction
		populate(b, s)
		req := httptest.NewRequest(http.MethodGet, "/api/v1/timelines/public?limit=40", nil)
		s.ServeHTTP(httptest.NewRecorder(), req)
		far := federation.Actor{User: "u", Domain: "far.test"}
		b.ReportAllocs()
		b.ResetTimer()
		// A b.N loop: b.Loop, on go1.24, did not terminate with the timer
		// stopped for part of every iteration.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			err := s.Receive(context.Background(), &federation.Activity{Type: federation.TypeCreate, From: far, Note: &federation.Note{
				ID: "far.test/" + strconv.Itoa(i), Author: far, Content: "one more", CreatedAt: t0,
			}})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}
