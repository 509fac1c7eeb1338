package instance

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/federation"
)

// The conditional-GET contract: a 304 certifies that no mutation completed
// since the returned ETag was issued. Concretely, a mutation between two
// If-None-Match revalidations MUST flip the tag — the second revalidation
// gets a full 200, never a stale 304. The suite runs over both the
// in-memory handler path and a real socket, and under -race in CI.

var etagT0 = time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)

// deliverNote delivers the i-th Create of the remote author to s's inbox.
func deliverNote(s *Server, remote federation.Actor, i int, content string) error {
	return s.Receive(context.Background(), &federation.Activity{
		Type: federation.TypeCreate,
		From: remote,
		Note: &federation.Note{ID: fmt.Sprintf("%s/%d", remote.Domain, i), Author: remote, Content: content},
	})
}

// condFetcher issues one GET with an optional If-None-Match header and
// returns status, ETag and body.
type condFetcher func(t *testing.T, path, inm string) (int, string, string)

func memoryCondFetcher(s *Server) condFetcher {
	return func(t *testing.T, path, inm string) (int, string, string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Host = s.Domain()
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("Etag"), rec.Body.String()
	}
}

func socketCondFetcher(t *testing.T, s *Server) condFetcher {
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return func(t *testing.T, path, inm string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Etag"), string(body)
	}
}

// runConditionalGet drives every cacheable endpoint through the
// fetch → revalidate(304) → unrelated write(still 304) → own write(200,
// new tag) cycle: a write flips the pages it changes and no others.
func runConditionalGet(t *testing.T, get condFetcher, s *Server) {
	ctx := context.Background()
	for _, name := range []string{"alice", "bob"} {
		if _, err := s.CreateAccount(name, false, false, etagT0); err != nil {
			t.Fatal(err)
		}
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	post := func(i int) {
		_, err := s.PostToot(ctx, "alice", fmt.Sprintf("toot %d", i), nil, etagT0.Add(time.Duration(i)*time.Minute))
		check(err)
	}
	deliver := func(i int) {
		check(deliverNote(s, federation.Actor{User: "u1", Domain: "far.test"}, i, "remote toot"))
	}
	register := func(i int) {
		_, err := s.CreateAccount(fmt.Sprintf("new%d", i), false, false, etagT0)
		check(err)
	}
	remoteFollow := func(i int) {
		check(s.Receive(ctx, &federation.Activity{
			Type:   federation.TypeFollow,
			From:   federation.Actor{User: "u1", Domain: fmt.Sprintf("peer%d.test", i)},
			Target: federation.Actor{User: "alice", Domain: s.Domain()},
		}))
	}
	localFollow := func(int) { check(s.FollowLocal("bob", "alice")) }
	post(-1)

	for i, tc := range []struct {
		path          string
		spares, dirty func(int)
	}{
		{"/", deliver, post},
		{"/api/v1/instance", localFollow, register},
		{"/api/v1/instance/peers", deliver, remoteFollow},
		{"/api/v1/timelines/public", register, deliver},
		{"/api/v1/timelines/public?local=true", deliver, post},
		{"/users/alice/followers", post, localFollow},
	} {
		path := tc.path
		code, tag, body := get(t, path, "")
		if code != 200 || tag == "" {
			t.Fatalf("%s: initial GET = %d, etag %q", path, code, tag)
		}
		// Unchanged state: the revalidation must be a 304 with no body.
		code, tag2, b304 := get(t, path, tag)
		if code != 304 || b304 != "" {
			t.Fatalf("%s: revalidation = %d body %q, want empty 304", path, code, b304)
		}
		if tag2 != tag {
			t.Fatalf("%s: 304 changed the tag %q -> %q", path, tag, tag2)
		}
		// A write that does not change this page moves the server's tag but
		// must leave the held one valid here.
		tc.spares(i)
		code, tag2, _ = get(t, path, tag)
		if code != 304 {
			t.Fatalf("%s: unrelated write forced a %d, want 304", path, code)
		}
		if tag2 == tag {
			t.Fatalf("%s: unrelated write did not move the server-wide tag %q", path, tag)
		}
		// A completed mutation between revalidations must flip the tag:
		// stale 304s would freeze the crawler's view of a live instance.
		tc.dirty(i)
		code, tag3, body3 := get(t, path, tag)
		if code != 200 {
			t.Fatalf("%s: revalidation after mutation = %d, want full 200 (stale 304?)", path, code)
		}
		if tag3 == tag || tag3 == tag2 {
			t.Fatalf("%s: mutation did not flip the etag %q", path, tag)
		}
		if body3 == "" || body3 == body {
			t.Fatalf("%s: post-mutation body did not change", path)
		}
		// And the new tag revalidates again — on this page and, because
		// clients hold one tag per host, on every other page too.
		if code, _, _ = get(t, path, tag3); code != 304 {
			t.Fatalf("%s: fresh tag did not revalidate: %d", path, code)
		}
		if code, _, _ = get(t, "/api/v1/instance", tag3); code != 304 {
			t.Fatalf("tag from %s did not revalidate another page: %d", path, code)
		}
	}

	// If-None-Match list forms and the * wildcard.
	_, tag, _ := get(t, "/api/v1/instance", "")
	for _, inm := range []string{
		`"bogus", ` + tag,
		"W/" + tag,
		"*",
	} {
		if code, _, _ := get(t, "/api/v1/instance", inm); code != 304 {
			t.Fatalf("If-None-Match %q: got %d, want 304", inm, code)
		}
	}
	for _, inm := range []string{`"bogus"`, `W/"other", "another"`, `malformed`} {
		if code, _, _ := get(t, "/api/v1/instance", inm); code != 200 {
			t.Fatalf("If-None-Match %q: got %d, want 200", inm, code)
		}
	}
}

func TestConditionalGetMemory(t *testing.T) {
	s := NewServer(Config{Domain: "etag.test", Open: true}, nil)
	runConditionalGet(t, memoryCondFetcher(s), s)
}

func TestConditionalGetSocket(t *testing.T) {
	s := NewServer(Config{Domain: "etag.test", Open: true}, nil)
	runConditionalGet(t, socketCondFetcher(t, s), s)
}

// Concurrent revalidations against a mutating server, once per page kind:
// every response must be a well-formed 200 or 304, and a tag observed
// strictly before a mutation of the page's kind completes must never 304
// strictly after it. The test synchronises reader and writer through
// channels so the ordering claims are real happens-before edges, and -race
// watches the rest.
func TestConditionalGetConcurrent(t *testing.T) {
	ctx := context.Background()
	remote := federation.Actor{User: "u1", Domain: "far.test"}
	boost := func(s *Server) error { return s.Boost(ctx, "alice", "far.test/1", remote, etagT0) }
	for _, tc := range []struct {
		kind, path string
		mutate     func(s *Server, i int) error
		noise      func(s *Server) error // a write that leaves this kind alone
	}{
		{"meta", "/api/v1/instance", func(s *Server, i int) error {
			_, err := s.CreateAccount(fmt.Sprintf("new%d", i), false, false, etagT0)
			return err
		}, boost},
		{"local", "/api/v1/timelines/public?local=true", func(s *Server, i int) error {
			_, err := s.PostToot(ctx, "alice", fmt.Sprintf("round %d", i), nil, etagT0)
			return err
		}, boost},
		{"federated", "/api/v1/timelines/public", func(s *Server, i int) error {
			return deliverNote(s, remote, i, "remote")
		}, func(s *Server) error { return s.FollowLocal("alice", "alice") }},
		{"followers", "/users/alice/followers", func(s *Server, i int) error {
			return s.Receive(ctx, &federation.Activity{
				Type:   federation.TypeFollow,
				From:   federation.Actor{User: fmt.Sprintf("u%d", i), Domain: "far.test"},
				Target: federation.Actor{User: "alice", Domain: s.Domain()},
			})
		}, boost},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			s := NewServer(Config{Domain: "etag.test", Open: true}, nil)
			if _, err := s.CreateAccount("alice", false, false, etagT0); err != nil {
				t.Fatal(err)
			}
			get := memoryCondFetcher(s)

			const rounds = 100
			var wg sync.WaitGroup
			tags := make(chan string, 1)   // reader → writer: tag observed pre-mutation
			mutated := make(chan struct{}) // writer → reader: mutation completed
			done := make(chan struct{})

			// Background noise: unsynchronised revalidators exercising the
			// race between the generation load, cache fills and
			// invalidations, and a writer of another kind moving the rest of
			// the vector.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := tc.noise(s); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					last := ""
					for {
						select {
						case <-done:
							return
						default:
						}
						code, tag, _ := get(t, tc.path, last)
						if code != 200 && code != 304 {
							t.Errorf("unexpected status %d", code)
							return
						}
						if tag != "" {
							last = tag
						}
					}
				}()
			}

			wg.Add(1)
			go func() { // writer
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					<-tags
					if err := tc.mutate(s, i); err != nil {
						t.Error(err)
						return
					}
					mutated <- struct{}{}
				}
			}()

			for i := 0; i < rounds; i++ {
				_, tag, _ := get(t, tc.path, "")
				tags <- tag // tag observed before the round-i mutation starts
				<-mutated   // mutation has completed
				code, _, _ := get(t, tc.path, tag)
				if code != 200 {
					t.Fatalf("round %d: stale 304 after completed mutation (tag %q)", i, tag)
				}
			}
			close(done)
			wg.Wait()
		})
	}
}

func TestETagMatch(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{`"g1.2.5.4"`, true},
		{`W/"g1.2.5.4"`, true},
		{`*`, true},
		{`"g1.2.4.4", "g9.9.5.9"`, true},
		{`"g1.2.4.4",W/"g1.2.5.4"`, true},
		{`  "g5.5.4.5" ,  "g5.5.6.5"`, false}, // only the federated component counts
		{`"g1.2.50.4"`, false},
		{`"g1.2.05.4"`, true}, // compared as numbers
		{`g1.2.5.4`, false},
		{`"unterminated`, false},
		{``, false},
		// Short, long and non-numeric vectors are malformed: no match, even
		// where a component in the right place reads 5.
		{`"g5"`, false},
		{`"g1.2.5"`, false},
		{`"g1.2.5.4.5"`, false},
		{`"g1.2.5.4."`, false},
		{`"g1..5.4"`, false},
		{`"1.2.5.4"`, false},
		{`"g1.2.5.x"`, false},
		{`"gx.2.5.4"`, false},
		{`"g1.2.+5.4"`, false},
		{`"g1.2.5 .4"`, false},
		{`"g1.2.5.18446744073709551616"`, false}, // overflows uint64
		{`"g1.2.x.4", "g1.2.5.4"`, true},         // a malformed tag does not poison the list
	} {
		if got := etagMatch(tc.header, kindFederated, 5); got != tc.want {
			t.Errorf("etagMatch(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

var vectorTagRE = regexp.MustCompile(`"g([0-9]+)\.([0-9]+)\.([0-9]+)\.([0-9]+)"`)

// FuzzETagMatch: no header panics the matcher; a well-formed vector matches
// iff the component of the page asked for is the current generation,
// whatever the rest of it says; "*" always matches; and nothing matches
// that does not contain "*" or such a vector.
func FuzzETagMatch(f *testing.F) {
	f.Add(`"g1.2.5.4"`, uint64(1), uint64(2), uint64(5), uint64(4), uint64(5), uint8(2))
	f.Add(`W/"g0.0.0.0", "g1.2.5"`, uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add(`*`, uint64(7), uint64(7), uint64(7), uint64(7), uint64(8), uint8(3))
	f.Add(`"g1.2.x.4" , W/"g5"`, uint64(1<<63), ^uint64(0), uint64(10), uint64(9), ^uint64(0), uint8(1))
	f.Add("\"g1.2.5.18446744073709551616\"\t,,", uint64(1), uint64(2), uint64(3), uint64(4), uint64(3), uint8(6))
	f.Fuzz(func(t *testing.T, header string, a, b, c, d, g uint64, k uint8) {
		kind := pageKind(k % uint8(numKinds))
		v := [numKinds]uint64{a, b, c, d}
		tag := fmt.Sprintf(`"g%d.%d.%d.%d"`, a, b, c, d)
		for _, form := range []string{tag, "W/" + tag, " ," + tag + `, "g1.2"`} {
			if got := etagMatch(form, kind, g); got != (v[kind] == g) {
				t.Fatalf("etagMatch(%q, %d, %d) = %v", form, kind, g, got)
			}
		}
		if list := tag + ", " + header; v[kind] == g && !etagMatch(list, kind, g) {
			t.Fatalf("etagMatch(%q, %d, %d): what follows a matching tag undid it", list, kind, g)
		}
		if !etagMatch("*", kind, g) || !etagMatch(`"g", *`, kind, g) {
			t.Fatal("* did not match")
		}

		if !etagMatch(header, kind, g) {
			return
		}
		if strings.Contains(header, "*") {
			return
		}
		for _, m := range vectorTagRE.FindAllStringSubmatch(header, -1) {
			if n, err := strconv.ParseUint(m[1+kind], 10, 64); err == nil && n == g {
				return
			}
		}
		t.Fatalf("etagMatch(%q, %d, %d) matched without a vector that says so", header, kind, g)
	})
}
