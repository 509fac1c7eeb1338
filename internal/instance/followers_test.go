package instance

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/wire"
)

// refFollowers is the follower paging serveFollowers replaced: page (1-based)
// of name's follower list at pageSize a page, materialised.
func (s *Server) refFollowers(name string, page, pageSize int) (actors []federation.Actor, hasNext bool, err error) {
	if pageSize <= 0 {
		pageSize = 40
	}
	if page < 1 {
		page = 1
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.accounts[name]
	if !ok {
		return nil, false, fmt.Errorf("instance %s: no account %q", s.cfg.Domain, name)
	}
	// A page past the end is the empty page. Clamping to the first such page
	// before multiplying keeps a hostile page number from overflowing the
	// offset negative.
	n := len(a.followers)
	lo := min(page-1, n/pageSize+1) * pageSize
	if lo >= n {
		return nil, false, nil
	}
	hi := min(lo+pageSize, n)
	actors = make([]federation.Actor, 0, hi-lo)
	for _, ai := range a.followers[lo:hi] {
		actors = append(actors, s.store.actors[ai])
	}
	return actors, hi < n, nil
}

func getFollowers(s *Server, name string, page int) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/users/"+name+"/followers?page="+strconv.Itoa(page), nil))
	return rec
}

// TestFollowerPageMatchesReference holds the follower pages, which are
// rendered from the follower table on every 200, to the materialising
// reference: on every account of a loaded tiny world, every page, the
// first one past the end and one whose offset would overflow; and on one
// account while Follow activities arrive, where every 200 must show a
// prefix of the final list, and a GET after the last delivery the whole.
func TestFollowerPageMatchesReference(t *testing.T) {
	t.Run("loaded", func(t *testing.T) {
		n, err := LoadWorld(context.Background(), gen.Generate(gen.TinyConfig(5)), LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fetched, paged := 0, 0 // pages, and accounts with more than one
		for _, d := range n.Domains() {
			s := n.Server(d)
			s.mu.RLock()
			names := make([]string, 0, len(s.accounts))
			for name := range s.accounts {
				names = append(names, name)
			}
			s.mu.RUnlock()
			for _, name := range names {
				last := max(1, (s.FollowerCount(name)+followerPageSize-1)/followerPageSize)
				if last > 1 {
					paged++
				}
				pages := []int{1 << 62} // an offset that overflows unless clamped
				for page := 1; page <= last+1; page++ {
					pages = append(pages, page)
				}
				for _, page := range pages {
					actors, more, err := s.refFollowers(name, page, followerPageSize)
					if err != nil {
						t.Fatal(err)
					}
					rec := getFollowers(s, name, page)
					if want := wire.AppendFollowerPage(nil, name, actors, page, more); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
						t.Fatalf("%s: %s page %d: status %d, body\n%s\nwant\n%s", d, name, page, rec.Code, rec.Body.Bytes(), want)
					}
					fetched++
				}
			}
		}
		if paged == 0 {
			t.Fatalf("%d follower pages fetched, none of them from an account with a second page", fetched)
		}
	})

	t.Run("concurrent follows", func(t *testing.T) {
		s := NewServer(Config{Domain: "x.test", Open: true}, nil)
		if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
			t.Fatal(err)
		}
		const follows = 8*followerPageSize + 7
		final := make([]federation.Actor, follows)
		for i := range final {
			final[i] = federation.Actor{User: fmt.Sprintf("f%d", i), Domain: fmt.Sprintf("far-%d.test", i%5)}
		}
		lastPage := (follows + followerPageSize - 1) / followerPageSize
		// prefixPage reports whether body is page of the follower list cut
		// to some prefix of final. Every cut up to lo renders the empty page
		// and every cut past lo+followerPageSize the full one with a next
		// link, so the cuts from lo to lo+followerPageSize+1 stand for all.
		prefixPage := func(body []byte, page int) bool {
			lo := (page - 1) * followerPageSize
			for k := min(lo, follows); k <= min(lo+followerPageSize+1, follows); k++ {
				from, hi := min(lo, k), min(lo+followerPageSize, k)
				if bytes.Equal(body, wire.AppendFollowerPage(nil, "alice", final[from:hi], page, hi < k)) {
					return true
				}
			}
			return false
		}

		done := make(chan struct{})
		var fetched atomic.Int64
		var wg sync.WaitGroup
		for r := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := r; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					page := 1 + i%(lastPage+1)
					rec := getFollowers(s, "alice", page)
					if rec.Code != http.StatusOK || !prefixPage(rec.Body.Bytes(), page) {
						t.Errorf("page %d: status %d, a body that is no prefix of the final list:\n%s", page, rec.Code, rec.Body.Bytes())
						return
					}
					fetched.Add(1)
				}
			}()
		}
		for i, from := range final {
			// Every page's worth of deliveries waits for a reader to finish
			// a fetch, so that the readers see the list grow.
			if i%followerPageSize == 0 {
				for n := fetched.Load(); fetched.Load() == n && !t.Failed(); {
					runtime.Gosched()
				}
			}
			err := s.Receive(context.Background(), &federation.Activity{
				Type: federation.TypeFollow, From: from, Target: federation.Actor{User: "alice", Domain: "x.test"},
			})
			if err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
		wg.Wait()
		for page := 1; page <= lastPage; page++ {
			lo, hi := (page-1)*followerPageSize, min(page*followerPageSize, follows)
			want := wire.AppendFollowerPage(nil, "alice", final[lo:hi], page, hi < follows)
			if got := getFollowers(s, "alice", page).Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("page %d after the last delivery:\n%s\nwant\n%s", page, got, want)
			}
		}
	})
}

// TestFollowerPagesCannotEvictTimelines: follower pages take no room in
// the page cache or the render memo, so a scrape of thousands of distinct
// follower pages leaves the renders a timeline head page joins in place,
// and leaves no follower bytes behind.
func TestFollowerPagesCannotEvictTimelines(t *testing.T) {
	s := populatedServer(t)
	const head = "/api/v1/timelines/public?limit=40"
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	body := get(head).Body.String()
	renders, _ := memoBytes(s)
	if renders == 0 {
		t.Fatal("the timeline head page rendered nothing into the memo")
	}

	for page := 1; page <= 5000; page++ {
		if rec := getFollowers(s, "alice", page); rec.Code != http.StatusOK {
			t.Fatalf("follower page %d: status %d", page, rec.Code)
		}
	}

	s.pages.mu.Lock()
	for p, e := range s.pages.meta {
		if bytes.Contains(e.body, []byte("Followers of")) {
			t.Errorf("meta slot %d holds a follower page", p)
		}
	}
	s.pages.mu.Unlock()
	if now, _ := memoBytes(s); now != renders {
		t.Fatalf("5,000 follower pages moved the memo from %d renders to %d", renders, now)
	}
	if got := get(head).Body.String(); got != body {
		t.Fatalf("the head page changed:\n%s\nwas\n%s", got, body)
	}
	if now, _ := memoBytes(s); now != renders {
		t.Fatalf("the head page was rendered again: %d renders, %d before", now, renders)
	}
}

// discardWriter is a ResponseWriter that keeps its header map and status
// across requests and drops the body, so that what a request allocates is
// the handler's own.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestServeAllocs: a follower page's 200 and 304, a meta page's 200, and,
// once the memo holds their statuses, a timeline page's 200 and 304 cost no
// allocation on a quiet server.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := populatedServer(t)
	w := &discardWriter{h: http.Header{}}
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/users/alice/followers?page=2", http.StatusOK},
		{"/users/alice/followers", http.StatusNotModified},
		{"/api/v1/instance", http.StatusOK},
		{"/api/v1/timelines/public?limit=40", http.StatusOK},
		{"/api/v1/timelines/public?local=true&max_id=60&limit=20", http.StatusOK},
		{"/api/v1/timelines/public?local=true", http.StatusNotModified},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.code == http.StatusNotModified {
			s.ServeHTTP(w, req)
			req.Header.Set("If-None-Match", w.h.Get("Etag"))
		}
		serve := func() {
			w.code = http.StatusOK
			s.ServeHTTP(w, req)
		}
		serve()
		if allocs := testing.AllocsPerRun(100, serve); allocs != 0 || w.code != tc.code {
			t.Errorf("GET %s: status %d, want %d; %.0f allocations, want 0", tc.path, w.code, tc.code, allocs)
		}
	}
}
