package instance

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// restingParts are the structures a loaded server holds its world in, in the
// order restingBreakdown drops them. A string shared by two of them (an
// account name is also an actor's User) is counted with the later one.
var restingParts = []struct {
	name string
	drop func(*Server)
}{
	{"toot rows", func(s *Server) { s.store.rows = nil }},
	{"text arena", func(s *Server) { s.store.arena = nil }},
	{"actor index", func(s *Server) { s.store.actorIdx = nil }},
	{"subscriber tables", func(s *Server) { s.subs = nil }},
	{"timelines", func(s *Server) { s.store.local, s.store.federated = nil, nil }},
	{"actors", func(s *Server) { s.store.actors = nil }},
	{"accounts", func(s *Server) { s.accounts = nil }},
}

// heapAfterGC returns the live heap once a collection has run.
func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// restingBreakdown logs what each of restingParts holds across every server
// of n, by dropping it from all of them and collecting, and then what is
// left above base, the heap before n was loaded. n is unusable afterwards.
func restingBreakdown(t *testing.T, n *Network, base int64, accounts int) {
	t.Helper()
	var servers []*Server
	for _, d := range n.Domains() {
		servers = append(servers, n.Server(d))
	}
	left := heapAfterGC()
	for _, part := range restingParts {
		for _, s := range servers {
			part.drop(s)
		}
		now := heapAfterGC()
		t.Logf("  %-17s %7.1f MB %5d B an account", part.name, float64(left-now)/1e6, (left-now)/int64(accounts))
		left = now
	}
	t.Logf("  %-17s %7.1f MB %5d B an account", "the rest", float64(left-base)/1e6, (left-base)/int64(accounts))
	runtime.KeepAlive(servers)
}

// maxRestingBytesPerAccount bounds what a loaded bench-size world leaves on
// the heap: 1,842 B an account measured on go1.24, plus 5%. With 56-byte
// toot rows and every remote note id as arena text it was 2,484; with a
// map as the actor index and nested maps as the subscriber tables, 3,077.
const maxRestingBytesPerAccount = 1934

// TestLoadWorldRestingBytes holds the heap a loaded bench-size world rests
// at to maxRestingBytesPerAccount, and logs it by structure.
func TestLoadWorldRestingBytes(t *testing.T) {
	w := benchSizeWorld()
	base := heapAfterGC()
	n, err := LoadWorld(context.Background(), w, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resident := heapAfterGC() - base
	perAccount := resident / int64(len(w.Users))
	t.Logf("%.1f MB resident for %d accounts, %d B an account", float64(resident)/1e6, len(w.Users), perAccount)
	restingBreakdown(t, n, base, len(w.Users))
	runtime.KeepAlive(w)
	if perAccount > maxRestingBytesPerAccount {
		t.Errorf("a loaded world rests at %d B an account, bound %d", perAccount, maxRestingBytesPerAccount)
	}
}

// A cached page is stored at its length: after every GET page of the
// bench-size world has been rendered once, the cached bodies' capacity is
// within a tenth of their length (append-grown bodies sat 13% over).
func TestPageCacheStoresExactBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("large world")
	}
	w := benchSizeWorld()
	n, err := LoadWorld(context.Background(), w, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var pages, length, capacity int
	for _, d := range n.Domains() {
		srv := n.Server(d)
		walkPages(srv, func(path string) (int, []byte) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			return rec.Code, rec.Body.Bytes()
		})
		srv.pages.mu.Lock()
		for _, e := range srv.pages.entries {
			pages, length, capacity = pages+1, length+len(e.body), capacity+cap(e.body)
		}
		srv.pages.mu.Unlock()
	}
	t.Logf("%d cached pages: %.1f MB of bodies in %.1f MB of capacity", pages, float64(length)/1e6, float64(capacity)/1e6)
	if pages == 0 || 10*capacity > 11*length {
		t.Fatalf("%d cached pages hold %d bytes in %d of capacity, more than a tenth over", pages, length, capacity)
	}
}
