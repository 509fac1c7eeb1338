package instance

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"unsafe"
)

// flatParts are the structures a loaded server holds in flat slices of
// pointer-free elements, each with the bytes its capacity holds: what
// restingBreakdown logs for them is exact.
var flatParts = []struct {
	name  string
	bytes func(*tootStore) int
}{
	{"toot rows", func(st *tootStore) int { return cap(st.rows) * int(unsafe.Sizeof(tootRow{})) }},
	{"text arena", func(st *tootStore) int { return cap(st.arena) }},
	{"actor index", func(st *tootStore) int { return cap(st.actorIdx) * 4 }},
	{"timelines", func(st *tootStore) int { return (cap(st.local) + cap(st.federated)) * 4 }},
}

// pointerParts are the rest of what a loaded server holds its world in, in
// the order restingBreakdown drops them to read each off the heap. A string
// shared by two of them (an account name is also an actor's User) is
// counted with the later one.
var pointerParts = []struct {
	name string
	drop func(*Server)
}{
	{"subscriber tables", func(s *Server) { s.subs = nil }},
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

// restingBreakdown logs what each structure holds across every server of
// n: flatParts from their capacities, then, with those dropped, each of
// pointerParts as the heap it frees, and last what is left above base, the
// heap before n was loaded. n is unusable afterwards.
func restingBreakdown(t *testing.T, n *Network, base int64, accounts int) {
	t.Helper()
	var servers []*Server
	for _, d := range n.Domains() {
		servers = append(servers, n.Server(d))
	}
	logPart := func(name string, bytes int64) {
		t.Logf("  %-17s %7.1f MB %5d B an account", name, float64(bytes)/1e6, bytes/int64(accounts))
	}
	for _, part := range flatParts {
		bytes := 0
		for _, s := range servers {
			bytes += part.bytes(&s.store)
		}
		logPart(part.name, int64(bytes))
	}
	for _, s := range servers {
		st := &s.store
		st.rows, st.arena, st.actorIdx, st.local, st.federated = nil, nil, nil, nil, nil
	}
	left := heapAfterGC()
	for _, part := range pointerParts {
		for _, s := range servers {
			part.drop(s)
		}
		now := heapAfterGC()
		logPart(part.name, left-now)
		left = now
	}
	logPart("the rest", left-base)
	runtime.KeepAlive(servers)
}

// maxRestingBytesPerAccount bounds what a loaded bench-size world leaves on
// the heap: 1,493 B an account measured on go1.24, plus 5%. With every
// loaded toot's text in the arena it was 1,842; with 56-byte toot rows and
// every remote note id as arena text, 2,484; with a map as the actor index
// and nested maps as the subscriber tables, 3,077.
const maxRestingBytesPerAccount = 1568

// maxPaperRestingBytesPerAccount is the same bound for the 300,000-account
// paper population (TestLoadWorldPaperPopulation): 1,103 B an account
// measured on go1.24, plus 5%. With every loaded toot's text in the arena
// it was 1,331.
const maxPaperRestingBytesPerAccount = 1158

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
// bench-size world has been rendered once, what the caches hold — meta
// page bodies, and each server's status renders with the index that finds
// them — is within a tenth of its length in capacity (append-grown bodies
// sat 13% over).
func TestPageCacheStoresExactBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("large world")
	}
	w := benchSizeWorld()
	n, err := LoadWorld(context.Background(), w, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// bodies, renders, render index: length and capacity in bytes
	var parts [3]struct{ length, capacity int }
	add := func(part, length, capacity int) {
		parts[part].length += length
		parts[part].capacity += capacity
	}
	pages, renders := 0, 0
	for _, d := range n.Domains() {
		srv := n.Server(d)
		walkPages(srv, func(path string) (int, []byte) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			return rec.Code, rec.Body.Bytes()
		})
		srv.pages.mu.Lock()
		for _, e := range srv.pages.meta {
			if e.body != nil {
				pages++
				add(0, len(e.body), cap(e.body))
			}
		}
		srv.pages.mu.Unlock()
		m := &srv.store.memo
		m.mu.Lock()
		if ms := m.cur; ms != nil {
			blocks := ms.blocks.all()
			for _, b := range blocks[:ms.blocks.n] {
				add(1, len(b), cap(b))
			}
			renders += ms.locs.n
			add(2, 8*ms.locs.n+24*ms.blocks.n, 8*len(ms.locs.all())+24*len(blocks))
		}
		m.mu.Unlock()
	}
	var length, capacity int
	for _, p := range parts {
		length, capacity = length+p.length, capacity+p.capacity
	}
	t.Logf("%d cached meta pages and %d status renders: %.1f MB in %.1f MB of capacity", pages, renders,
		float64(length)/1e6, float64(capacity)/1e6)
	for i, name := range []string{"bodies", "renders", "render index"} {
		t.Logf("  %-12s %6.2f MB %5.1f%%", name, float64(parts[i].length)/1e6, 100*float64(parts[i].length)/float64(length))
	}
	if pages == 0 || 10*capacity > 11*length {
		t.Fatalf("%d cached pages hold %d bytes in %d of capacity, more than a tenth over", pages, length, capacity)
	}
}
