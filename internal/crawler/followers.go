package crawler

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net/url"
	"slices"
	"strconv"
	"sync"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// FollowerScraper rebuilds the social graph by paging through the HTML
// follower lists at https://<domain>/users/<name>/followers (§3).
type FollowerScraper struct {
	Client  *Client
	Workers int // concurrent accounts (0 = 10)
}

// A nameList holds names back to back, and where each one ends. A scrape
// worker collects the follower names it reads in one (its arena, pooled,
// so a scrape collects into memory the previous one grew), and the
// interner keeps the names it has not seen before in another.
type nameList struct {
	bytes []byte
	ends  []uint32
}

var arenaPool = sync.Pool{New: func() any { return new(nameList) }}

// maxPooledArena caps the names an arena may hold and still go back into
// the pool, as maxPooledBuf caps a body buffer.
const maxPooledArena = 4 << 20

// appendPage appends the followers one HTML follower page lists and reports
// whether the page links a next page. It never fails: unparseable markup
// simply yields no followers, matching how a scraper treats a mangled page.
func (l *nameList) appendPage(body []byte) (hasNext bool) {
	wire.ScanFollowerPage(body, func(domain, user []byte) {
		l.grow(len(user) + 1 + len(domain))
		l.bytes = append(l.bytes, user...)
		l.bytes = append(l.bytes, '@')
		l.bytes = append(l.bytes, domain...)
		l.ends = append(l.ends, uint32(len(l.bytes)))
	})
	return wire.FollowerPageHasNext(body)
}

// grow makes room for one more name of n bytes. It doubles what it grows:
// append grows a large slice by a quarter at a time, which allocates a
// buffer on its way to a megabyte several megabytes' worth.
func (l *nameList) grow(n int) {
	if cap(l.bytes)-len(l.bytes) < n {
		l.bytes = slices.Grow(l.bytes, max(n, cap(l.bytes)))
	}
	if len(l.ends) == cap(l.ends) {
		l.ends = slices.Grow(l.ends, max(1, cap(l.ends)))
	}
}

// name returns the k-th name.
func (l *nameList) name(k int) []byte {
	start := uint32(0)
	if k > 0 {
		start = l.ends[k-1]
	}
	return l.bytes[start:l.ends[k]]
}

// scrapeAccount appends every follower of acct (user@domain) to a, page
// after page; on an error, the pages before it stay. An acct comes out of
// crawled pages, so it is hostile input: the user part is escaped into one
// path segment, whatever it holds, and a domain part that is not a plain
// host is refused before it can name another path or authority.
func (fs *FollowerScraper) scrapeAccount(ctx context.Context, acct string, a *nameList) error {
	user, domain, ok := dataset.SplitAcct(acct)
	if !ok || !plainHost(domain) {
		return fmt.Errorf("crawler: malformed acct %q", acct)
	}
	segment := url.PathEscape(user)
	bp := getBuf()
	var body []byte
	var err error
	defer func() { putBuf(bp, body) }()
	for page := 1; ; page++ {
		path := "/users/" + segment + "/followers?page=" + strconv.Itoa(page)
		// The parser never fails on mangled HTML (zero followers is a legal
		// page), so truncation-in-flight is caught by the structural
		// trailer check, retried by the fetch layer like a torn read.
		// GetChecked always returns the current (possibly regrown) buffer.
		body, err = fs.Client.GetChecked(ctx, domain, path, (*bp)[:0], wire.FollowerPageComplete)
		*bp = body[:0]
		if err != nil {
			return err
		}
		if !a.appendPage(body) {
			return nil
		}
	}
}

// ScrapeResult is the outcome of a full follower crawl: every account it
// saw, once, and each scraped account's followers as ids into Accounts.
type ScrapeResult struct {
	// Accounts holds the scraped accounts in the order given, then every
	// follower not among them in the order the lists first name it.
	Accounts []string
	// Followers[i] lists the ids of the i-th scraped account's followers
	// in page order, duplicates kept.
	Followers [][]int32
	Errors    map[string]error // per-acct failures
}

// Scrape collects the follower lists of accts (each named once)
// concurrently. A worker collects the names it reads as bytes in its own
// arena; once the workers have joined, the names are interned in account
// order, so the ids do not depend on which worker read which list.
func (fs *FollowerScraper) Scrape(ctx context.Context, accts []string) ScrapeResult {
	workers := fs.Workers
	if workers < 1 {
		workers = 10
	}
	workers = min(workers, len(accts)) // forEach starts no more
	free := make(chan *nameList, workers)
	arenas := make([]*nameList, workers)
	for w := range arenas {
		arenas[w] = arenaPool.Get().(*nameList)
		free <- arenas[w]
	}
	type span struct {
		a        *nameList
		from, to int // the arena's names from..to-1
	}
	spans := make([]span, len(accts))
	errs := make([]error, len(accts))
	forEach(ctx, len(accts), workers, errs, func(ctx context.Context, i int) error {
		a := <-free // at most workers calls run at once, so one is always there
		defer func() { free <- a }()
		from := len(a.ends)
		err := fs.scrapeAccount(ctx, accts[i], a)
		spans[i] = span{a, from, len(a.ends)}
		return err
	})

	total := 0
	for _, sp := range spans {
		total += sp.to - sp.from
	}
	ids := make([]int32, 0, total) // backs every list
	in := newInterner(accts)
	res := ScrapeResult{Followers: make([][]int32, len(accts)), Errors: make(map[string]error)}
	for i, sp := range spans {
		start := len(ids)
		for k := sp.from; k < sp.to; k++ {
			ids = append(ids, in.id(sp.a.name(k)))
		}
		res.Followers[i] = ids[start:len(ids):len(ids)]
		if errs[i] != nil {
			res.Errors[accts[i]] = errs[i]
		}
	}
	res.Accounts = in.accounts()
	for _, a := range arenas {
		if cap(a.bytes) <= maxPooledArena {
			a.bytes, a.ends = a.bytes[:0], a.ends[:0]
			arenaPool.Put(a)
		}
	}
	return res
}

// An interner hands out account ids to names: the scraped accounts' own
// positions, then the next id to each name it has not seen, in the order
// asked. Its table is open-addressed over ids, and it keeps the new names
// in a nameList, so neither a lookup nor a new name allocates.
type interner struct {
	seed  maphash.Seed
	slots []int32 // id+1 per slot, 0 when free; a power of two long
	known []string
	fresh nameList
}

// newInterner starts the table with the known names. A name known twice
// answers with its first id: ids are inserted in order, so the first is
// nearer where the probe starts.
func newInterner(known []string) *interner {
	in := &interner{seed: maphash.MakeSeed(), known: known}
	in.grow(len(known))
	return in
}

// is reports whether id names name.
func (in *interner) is(id int, name []byte) bool {
	if id < len(in.known) {
		return in.known[id] == string(name)
	}
	return bytes.Equal(in.fresh.name(id-len(in.known)), name)
}

func (in *interner) hash(id int) uint64 {
	if id < len(in.known) {
		return maphash.String(in.seed, in.known[id])
	}
	return maphash.Bytes(in.seed, in.fresh.name(id-len(in.known)))
}

// id returns name's id, handing out the next one if name is new.
func (in *interner) id(name []byte) int32 {
	mask := uint64(len(in.slots) - 1)
	i := maphash.Bytes(in.seed, name) & mask
	for ; in.slots[i] != 0; i = (i + 1) & mask {
		if id := in.slots[i] - 1; in.is(int(id), name) {
			return id
		}
	}
	id := len(in.known) + len(in.fresh.ends)
	in.fresh.grow(len(name))
	in.fresh.bytes = append(in.fresh.bytes, name...)
	in.fresh.ends = append(in.fresh.ends, uint32(len(in.fresh.bytes)))
	in.slots[i] = int32(id) + 1
	if 4*(id+1) > 3*len(in.slots) {
		in.grow(id + 1)
	}
	return int32(id)
}

// grow rebuilds the table, in id order, with room for twice n ids.
func (in *interner) grow(n int) {
	size := 16
	for 2*n > size {
		size *= 2
	}
	in.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := range len(in.known) + len(in.fresh.ends) {
		i := in.hash(id) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = int32(id) + 1
	}
}

// accounts returns every name by id: the scraped accounts as given, then
// the new names, which share one string.
func (in *interner) accounts() []string {
	out := make([]string, len(in.known), len(in.known)+len(in.fresh.ends))
	copy(out, in.known)
	all, start := string(in.fresh.bytes), uint32(0)
	for _, end := range in.fresh.ends {
		out = append(out, all[start:end])
		start = end
	}
	return out
}
