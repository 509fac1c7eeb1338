package instance

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/wire"
)

// memoBytes is what the render memo's current store holds in renders.
func memoBytes(s *Server) (renders, bytes int) {
	m := &s.store.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur == nil {
		return 0, 0
	}
	for _, b := range m.cur.blocks.all()[:m.cur.blocks.n] {
		bytes += len(b)
	}
	return m.cur.locs.n, bytes
}

// A store that is full starts over at the next page that renders, and a
// page joins from the store its render ids name: with room for seven
// renders, every page of the stream server, fetched twice over, is the
// materialised reference.
func TestRenderMemoStartsOverWhenFull(t *testing.T) {
	defer func(c int) { memoCapacity = c }(memoCapacity)
	memoCapacity = 7
	s := buildStreamServer(t, Config{Domain: "stream.test", Open: true})
	stores := map[*memoStore]bool{}
	for pass := 0; pass < 2; pass++ {
		for _, q := range []struct {
			query          string
			kind           Timeline
			maxID, sinceID int64
			limit          int
		}{
			{"?limit=3", TimelineFederated, 0, 0, 3},
			{"?local=true&limit=4", TimelineLocal, 0, 0, 4},
			{"?max_id=9", TimelineFederated, 9, 0, 20},
			{"", TimelineFederated, 0, 0, 20},
			{"?since_id=3&limit=2", TimelineFederated, 0, 3, 2},
			{"?local=true", TimelineLocal, 0, 0, 20},
		} {
			path := "/api/v1/timelines/public" + q.query
			if got, want := fetchBody(t, s, path), refTimelineBody(s, q.kind, q.maxID, q.sinceID, q.limit); got != want {
				t.Errorf("pass %d, %s:\n  served:       %q\n  materialised: %q", pass, path, got, want)
			}
			s.store.memo.mu.Lock()
			stores[s.store.memo.cur] = true
			s.store.memo.mu.Unlock()
		}
	}
	if len(stores) < 2 {
		t.Fatalf("%d render stores over the passes: a full store never started over", len(stores))
	}
}

// Misses on one server share its memo: readers page through both timelines
// while one writer's deliveries trim, compact and fill the store, so that
// renders are stored, found, raced for and started over under them. Every
// status served must be the one its id names; once the writer is done,
// every page must be the materialised reference.
func TestRenderMemoConcurrent(t *testing.T) {
	defer func(c int) { memoCapacity = c }(memoCapacity)
	memoCapacity = 8 // a store fills within a few misses, so that misses race its replacement
	ctx := context.Background()
	s := NewServer(Config{Domain: "a.test", Open: true, MaxFederated: 32}, nil)
	if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
		t.Fatal(err)
	}
	// A status's content is "toot <its id>": ids count up from 1, one per
	// post and per delivery, in the order the one writer makes them.
	const local, deliveries = 10, 400
	for id := 1; id <= local; id++ {
		if _, err := s.PostToot(ctx, "alice", "toot "+strconv.Itoa(id), nil, t0); err != nil {
			t.Fatal(err)
		}
	}
	far := federation.Actor{User: "u", Domain: "far.test"}
	paths := func(rng *rand.Rand) string {
		path := "/api/v1/timelines/public?limit=" + strconv.Itoa(1+rng.IntN(40))
		if rng.IntN(2) == 0 {
			path += "&local=true"
		}
		if rng.IntN(2) == 0 {
			path += "&max_id=" + strconv.Itoa(1+rng.IntN(local+deliveries))
		}
		return path
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0))
			for {
				select {
				case <-done:
					return
				default:
				}
				path := paths(rng)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				var page []wire.Status
				err := json.Unmarshal(rec.Body.Bytes(), &page)
				for _, st := range page {
					if st.Content != "toot "+st.ID {
						t.Errorf("%s: status %s reads %q", path, st.ID, st.Content)
					}
				}
				if rec.Code != http.StatusOK || err != nil {
					t.Errorf("%s: status %d, %v", path, rec.Code, err)
					return
				}
			}
		}(uint64(r))
	}
	for id := local + 1; id <= local+deliveries; id++ {
		err := s.Receive(ctx, &federation.Activity{Type: federation.TypeCreate, From: far, Note: &federation.Note{
			ID: "far.test/" + strconv.Itoa(id), Author: far, Content: "toot " + strconv.Itoa(id), CreatedAt: time.Unix(int64(id), 0),
		}})
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()

	rng := rand.New(rand.NewPCG(99, 0))
	for i := 0; i < 200; i++ {
		path := paths(rng)
		q := queryOf(path[len("/api/v1/timelines/public?"):])
		kind := TimelineFederated
		if q.Get("local") == "true" {
			kind = TimelineLocal
		}
		limit, _ := strconv.Atoi(q.Get("limit"))
		maxID, _ := strconv.ParseInt(q.Get("max_id"), 10, 64)
		if got, want := fetchBody(t, s, path), refTimelineBody(s, kind, maxID, 0, limit); got != want {
			t.Fatalf("%s after the writes:\n  served:       %q\n  materialised: %q", path, got, want)
		}
	}
	// Past capacity, a store takes at most the misses already under way.
	if renders, _ := memoBytes(s); renders > memoCapacity+4*40 {
		t.Fatalf("the current store holds %d renders, capacity %d", renders, memoCapacity)
	}
}

// Misses that race on one cold page render its statuses each, but the memo
// keeps one render per status: the store path re-checks, under the lock,
// whether another page stored a row's render meanwhile. Each round
// releases several readers of one 40-status page on a fresh server at
// once, then counts the renders; a store path that skipped the re-check
// would keep a status once per reader that raced for it.
func TestRenderMemoStoresOnceUnderConcurrentMisses(t *testing.T) {
	ctx := context.Background()
	const rounds, readers, statuses = 20, 8, maxPageStatuses
	path := "/api/v1/timelines/public?limit=" + strconv.Itoa(statuses)
	for round := 0; round < rounds; round++ {
		s := NewServer(Config{Domain: "a.test", Open: true}, nil)
		if _, err := s.CreateAccount("alice", false, false, t0); err != nil {
			t.Fatal(err)
		}
		long := strings.Repeat("<&> a status long enough to take a while to escape ", 20)
		for i := 0; i < statuses; i++ {
			if _, err := s.PostToot(ctx, "alice", long+strconv.Itoa(i), []string{"t"}, t0); err != nil {
				t.Fatal(err)
			}
		}
		want := refTimelineBody(s, TimelineFederated, 0, 0, statuses)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if got := rec.Body.String(); rec.Code != http.StatusOK || got != want {
					t.Errorf("round %d: status %d, body differs from the materialised page", round, rec.Code)
				}
			}()
		}
		close(start)
		wg.Wait()
		if renders, _ := memoBytes(s); renders != statuses {
			t.Fatalf("round %d: %d readers of one cold page of %d statuses left %d renders in the memo",
				round, readers, statuses, renders)
		}
	}
}

// The renders of a server's live rows: what its memo would hold had every
// live status been shown once.
func liveRenderBytes(s *Server) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var buf []byte
	seen := map[uint32]bool{}
	for _, tl := range [][]uint32{s.store.local, s.store.federated} {
		for _, ri := range tl {
			if !seen[ri] {
				seen[ri] = true
				buf = s.appendStatusRow(buf, &s.store.rows[ri])
			}
		}
	}
	return len(buf)
}

// TestTimelineQueriesHoldNoState: a timeline page is not kept, so ten
// thousand distinct queries on a quiet server leave behind only the memo's
// renders, one per public status they showed, and every page is the
// materialised reference.
func TestTimelineQueriesHoldNoState(t *testing.T) {
	s := populatedServer(t)
	shown := map[string]bool{}
	before := heapAfterGC()
	for i := 0; i < 10000; i++ {
		// Every query differs in (local, limit, max_id); since_id varies too.
		local := []string{"", "&local=true", "&local=1", "&local=false"}[i%4]
		kind := TimelineFederated
		if i%4 == 1 || i%4 == 2 {
			kind = TimelineLocal
		}
		limit, maxID, sinceID := 1+i/4%40, int64(i/160*2), int64(i%9)
		path := "/api/v1/timelines/public?limit=" + strconv.Itoa(limit) + "&max_id=" + strconv.FormatInt(maxID, 10) +
			"&since_id=" + strconv.FormatInt(sinceID, 10) + local
		body := fetchBody(t, s, path)
		if want := refTimelineBody(s, kind, maxID, sinceID, limit); body != want {
			t.Fatalf("%s:\n  served:       %q\n  materialised: %q", path, body, want)
		}
		if err := wire.ScanStatuses([]byte(body), func(v *wire.StatusView) { shown[string(v.ID)] = true }); err != nil {
			t.Fatal(err)
		}
	}
	grown := heapAfterGC() - before

	renders, rendered := memoBytes(s)
	if renders == 0 || renders > len(shown) {
		t.Fatalf("the memo holds %d renders for %d distinct statuses shown", renders, len(shown))
	}
	s.pages.mu.Lock()
	for p, e := range s.pages.meta {
		if e.body != nil {
			t.Errorf("meta slot %d holds %d bytes, and no meta page was asked for", p, len(e.body))
		}
	}
	s.pages.mu.Unlock()
	// What the memo holds — renders, a block header and a location each at
	// most, vectors at most twice their length — and the set of ids shown,
	// with room for the pooled buffers a collection has not yet freed.
	held := int64(rendered + 2*renders*(24+8) + len(shown)*64 + 64<<10)
	if grown > held {
		t.Fatalf("%d timeline queries left %d B on the heap; the memo and the test hold at most %d", 10000, grown, held)
	}
	t.Logf("%d distinct statuses shown, %d rendered in %d B; the heap grew %d B", len(shown), renders, rendered, grown)
}
