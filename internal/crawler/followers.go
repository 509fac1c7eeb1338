package crawler

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// Edge is one follower relationship: From follows To (both user@domain).
// It is the dataset-layer follow edge, so scrape results feed dataset
// assembly and the incremental-recrawl merge without conversion.
type Edge = dataset.FollowEdge

// FollowerScraper rebuilds the social graph by paging through the HTML
// follower lists at https://<domain>/users/<name>/followers (§3).
type FollowerScraper struct {
	Client  *Client
	Workers int // concurrent accounts (0 = 10)
}

var edgeScratch scratchPool[Edge]

// followerPage is the most followers a follower page lists (what
// instance.serveFollowers renders; Mastodon itself lists fewer).
const followerPage = 40

// ParseFollowerPage extracts follower→acct edges from one HTML follower
// page and reports whether the page links a next page. It never fails:
// unparseable markup simply yields no edges, matching how a scraper treats
// a mangled page. The follower strings are copied out, so body may be a
// reused buffer.
func ParseFollowerPage(acct string, body []byte) (edges []Edge, hasNext bool) {
	return appendFollowerEdges(nil, acct, body)
}

// appendFollowerEdges appends one page's follower→acct edges to dst, one
// allocation per edge (the concatenation converts its operands in place).
func appendFollowerEdges(dst []Edge, acct string, body []byte) ([]Edge, bool) {
	wire.ScanFollowerPage(body, func(domain, user []byte) {
		dst = append(dst, Edge{From: string(user) + "@" + string(domain), To: acct})
	})
	return dst, wire.FollowerPageHasNext(body)
}

// ScrapeAccount collects every follower of acct (user@domain). It returns
// the edges follower→acct. An acct comes out of crawled pages, so it is
// hostile input: the user part is escaped into one path segment, whatever
// it holds, and a domain part that is not a plain host is refused before it
// can name another path or authority.
func (fs *FollowerScraper) ScrapeAccount(ctx context.Context, acct string) ([]Edge, error) {
	user, domain, ok := SplitAcct(acct)
	if !ok || !plainHost(domain) {
		return nil, fmt.Errorf("crawler: malformed acct %q", acct)
	}
	segment := url.PathEscape(user)
	edges := edgeScratch.get()
	defer edgeScratch.put(edges)
	bp := getBuf()
	var body []byte
	var err error
	defer func() { putBuf(bp, body) }()
	page := 1
	for {
		path := "/users/" + segment + "/followers?page=" + strconv.Itoa(page)
		// The parser never fails on mangled HTML (zero edges is a legal
		// page), so truncation-in-flight is caught by the structural
		// trailer check, retried by the fetch layer like a torn read.
		// GetChecked always returns the current (possibly regrown) buffer.
		body, err = fs.Client.GetChecked(ctx, domain, path, (*bp)[:0], wire.FollowerPageComplete)
		*bp = body[:0]
		if err != nil {
			return edges.result(), err
		}
		var hasNext bool
		edges.chunk, hasNext = appendFollowerEdges(edges.chunk, acct, body)
		if !hasNext {
			return edges.result(), nil
		}
		edges.spill(followerPage)
		page++
	}
}

// ScrapeResult is the outcome of a full follower crawl.
type ScrapeResult struct {
	Edges  []Edge
	Errors map[string]error // per-acct failures
}

// Scrape collects the follower lists of all accounts concurrently.
func (fs *FollowerScraper) Scrape(ctx context.Context, accts []string) ScrapeResult {
	workers := fs.Workers
	if workers < 1 {
		workers = 10
	}
	perAcct := make([][]Edge, len(accts))
	errs := forEach(ctx, len(accts), workers, func(ctx context.Context, i int) error {
		edges, err := fs.ScrapeAccount(ctx, accts[i])
		perAcct[i] = edges
		return err
	})
	res := ScrapeResult{Errors: make(map[string]error)}
	total := 0
	for _, es := range perAcct {
		total += len(es)
	}
	if total > 0 {
		res.Edges = make([]Edge, 0, total)
	}
	for i, es := range perAcct {
		res.Edges = append(res.Edges, es...)
		if errs[i] != nil {
			res.Errors[accts[i]] = errs[i]
		}
	}
	return res
}

// AccountIndex assigns dense ids to every account appearing in edges, in
// deterministic (sorted) order, returning the index and the reverse list.
func AccountIndex(edges []Edge) (map[string]int32, []string) {
	set := make(map[string]struct{}, len(edges))
	for _, e := range edges {
		set[e.From] = struct{}{}
		set[e.To] = struct{}{}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	idx := make(map[string]int32, len(names))
	for i, n := range names {
		idx[n] = int32(i)
	}
	return idx, names
}
