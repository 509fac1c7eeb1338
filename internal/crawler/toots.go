package crawler

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// InstanceCrawl is the harvest of one instance: who tooted on it and how
// many toots each of them has — all the reproduction reads of a toot.
type InstanceCrawl struct {
	Domain string
	Toots  int // toots harvested
	// Authors are the distinct authors of the harvested toots as
	// user@domain, in first-seen order; AuthorToots, aligned with them,
	// how many of the toots each wrote.
	Authors     []string
	AuthorToots []int
	Blocked     bool // instance refuses crawling (403)
	Offline     bool // instance unreachable
	// Quarantined marks a crawl cut short because the shared circuit
	// breaker exhausted the host's failure budget.
	Quarantined bool
	Err         error
	Pages       int
	// SinceID is the high-water mark the crawl resumed from (0 = a full
	// harvest); MaxID is the largest toot id seen, carrying SinceID forward
	// when the delta window produced nothing new. Together they are the
	// checkpoint an incremental recrawl passes to the next campaign.
	SinceID int64
	MaxID   int64
}

// TootCrawler pages through the local public timelines of many instances
// concurrently — the "multi-threaded crawler ... parallelised across 10
// threads" of §3, with a token bucket standing in for its artificial delays.
// Crawl (lease.go) runs it; the client's Clock times the re-crawl of a
// domain whose worker died.
type TootCrawler struct {
	Client   *Client
	Workers  int // workers, one instance each at a time (0 = 10, matching the paper)
	MaxToots int // per-instance harvest cap (0 = unlimited)
	// Kill scripts worker deaths mid-domain, for churn experiments.
	Kill []Kill
	// Since, when set, turns the crawl incremental: a domain with a
	// positive high-water mark only fetches toots with id greater than it
	// (Mastodon's since_id parameter), so a recrawl pays for new content
	// only. Domains without an entry are harvested in full.
	Since map[string]int64
}

// CrawlInstance harvests one instance's entire toot history by paging
// max_id backwards until the beginning of time. One pooled body buffer and
// one pooled harvest serve the whole paging loop.
func (tc *TootCrawler) CrawlInstance(ctx context.Context, domain string) InstanceCrawl {
	out := InstanceCrawl{Domain: domain}
	h := harvestPool.Get().(*harvest)
	tc.harvest(ctx, &out, h)
	if len(h.authors) > 0 {
		out.Authors, out.AuthorToots = slices.Clone(h.authors), slices.Clone(h.counts)
	}
	h.release()
	return out
}

// statusPage is Mastodon's cap on a timeline page, and what harvest asks for.
const statusPage = 40

// harvest is CrawlInstance's paging loop: it fills in everything but the
// authors, whom it leaves in h.
func (tc *TootCrawler) harvest(ctx context.Context, out *InstanceCrawl, h *harvest) {
	domain := out.Domain
	since := tc.Since[domain]
	out.SinceID = since
	out.MaxID = since
	bp := getBuf()
	var body []byte
	defer func() { putBuf(bp, body) }()
	var maxID int64
	base := "/api/v1/timelines/public?local=true&limit=" + strconv.Itoa(statusPage)
	if since > 0 {
		base += "&since_id=" + strconv.FormatInt(since, 10)
	}
	for {
		path := base
		if maxID > 0 {
			path += "&max_id=" + strconv.FormatInt(maxID, 10)
		}
		// The page is read inside the fetch's integrity check: a corrupt page
		// is retried like a torn read instead of ending the harvest, so each
		// attempt starts from the authors known before it. A status that is
		// valid JSON but not a toot (pageErr) is not corruption: it ends the
		// harvest after the toots ahead of it.
		m := len(h.authors)
		var pageErr error
		var err error
		// GetChecked always returns the current (possibly regrown) buffer.
		body, err = tc.Client.GetChecked(ctx, domain, path, (*bp)[:0], func(b []byte) error {
			h.keep(m, 0)
			pageErr = nil
			return wire.ScanStatuses(b, func(v *wire.StatusView) {
				if pageErr == nil {
					pageErr = h.add(v)
				}
			})
		})
		*bp = body[:0]
		if err != nil {
			var se *StatusError
			var qe *QuarantinedError
			switch {
			case asStatusError(err, &se) && se.Code == 403:
				out.Blocked = true
			case asStatusError(err, &se) && se.Code/100 == 5:
				// 5xx after retries: the instance is down, exactly what the
				// prober sees during an outage.
				out.Offline = true
				out.Err = err
			case asStatusError(err, &se):
				out.Err = err
			case errors.As(err, &qe):
				// The breaker gave up on the host mid-campaign; whatever was
				// harvested so far is a partial result.
				out.Offline = true
				out.Quarantined = true
				out.Err = err
			default:
				out.Offline = true
				out.Err = err
			}
			h.keep(m, 0)
			return
		}
		out.Pages++
		if len(h.page) == 0 && pageErr == nil {
			return
		}
		pageMax := maxID
		n, done := len(h.page), false
		for i, t := range h.page {
			if pageMax > 0 && t.id >= pageMax {
				// The server ignored max_id: paging on would fetch the
				// same toots until the deadline.
				out.Err = fmt.Errorf("crawler: %s ignored max_id: status %d is not below %d", domain, t.id, pageMax)
				n, done = i, true
				break
			}
			if since > 0 && t.id <= since {
				// A server without since_id support paged past the mark:
				// everything from here back was already harvested.
				n, done = i, true
				break
			}
			out.MaxID = max(out.MaxID, t.id)
			if maxID == 0 || t.id < maxID {
				maxID = t.id
			}
			if tc.MaxToots > 0 && out.Toots+i+1 >= tc.MaxToots {
				n, done = i+1, true
				break
			}
		}
		h.keep(m, n)
		out.Toots += n
		if done {
			return
		}
		if pageErr != nil {
			out.Err = pageErr
			return
		}
	}
}

// A harvest is a toot crawl's working storage, pooled: the current page's
// toots, and the crawl's authors with how many toots of each it has kept.
type harvest struct {
	page    []pageToot       // the current page's toots, in page order
	authors []string         // the toots' distinct authors, in first-seen order
	counts  []int            // kept toots per author
	ids     map[string]int32 // authors' indexes
}

// A pageToot is one toot of the current page: its id and its author's
// index.
type pageToot struct {
	id     int64
	author int32
}

// maxHarvestTable caps the page and the authors a pooled harvest may have
// held: a cleared map keeps its size, and one large crawl must not pin it.
const maxHarvestTable = 8192

var harvestPool = sync.Pool{New: func() any { return &harvest{ids: make(map[string]int32)} }}

// release empties h and puts it back in the pool, holding no string of the
// crawl, unless a large crawl grew it past maxHarvestTable.
func (h *harvest) release() {
	if cap(h.page) > maxHarvestTable || len(h.ids) > maxHarvestTable {
		return
	}
	h.keep(0, 0)
	harvestPool.Put(h)
}

// add appends a status to the page, or reports why it is not a toot.
func (h *harvest) add(v *wire.StatusView) error {
	id, err := tootID(v)
	if err != nil {
		return err
	}
	k, ok := h.ids[string(v.Acct)]
	if !ok {
		k = int32(len(h.authors))
		acct := string(v.Acct)
		h.ids[acct] = k
		h.authors = append(h.authors, acct)
		h.counts = append(h.counts, 0)
	}
	h.page = append(h.page, pageToot{id, k})
	return nil
}

// keep counts the page's first n toots, m being how many authors the
// harvest had before the page, and empties the page. The authors only the
// page's other toots introduced — the ones numbered past every author the
// kept toots name — are dropped.
func (h *harvest) keep(m, n int) {
	for _, t := range h.page[:n] {
		h.counts[t.author]++
		m = max(m, int(t.author)+1)
	}
	for _, a := range h.authors[m:] {
		delete(h.ids, a)
	}
	clear(h.authors[m:])
	h.authors, h.counts, h.page = h.authors[:m], h.counts[:m], h.page[:0]
}

// tootID reads one scanned status's id, and checks that its created_at is
// a time: a status that is not a toot ends the harvest.
func tootID(v *wire.StatusView) (int64, error) {
	id, err := strconv.ParseInt(string(v.ID), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("crawler: bad status id %q: %w", v.ID, err)
	}
	if _, ok := mastodonTime(v.CreatedAt); ok {
		return id, nil
	}
	if _, err = time.Parse(mastodonLayout, string(v.CreatedAt)); err != nil {
		// Fall back to RFC3339 for non-Mastodon implementations.
		if _, err = time.Parse(time.RFC3339, string(v.CreatedAt)); err != nil {
			return 0, fmt.Errorf("crawler: bad created_at %q", v.CreatedAt)
		}
	}
	return id, nil
}

// mastodonLayout is the created_at format Mastodon serialises: UTC,
// millisecond precision, always 24 bytes.
const mastodonLayout = "2006-01-02T15:04:05.000Z"

// mastodonTime reads a timestamp written exactly as mastodonLayout — every
// digit and separator in its place, every field in range — and returns the
// time time.Parse(mastodonLayout, s) returns for it. Anything else reports
// false and is time.Parse's to judge: it accepts a few looser spellings (a
// one-digit hour, ',' before the milliseconds) and words the errors.
func mastodonTime(s []byte) (time.Time, bool) {
	if len(s) != len(mastodonLayout) {
		return time.Time{}, false
	}
	var f [7]int // year, month, day, hour, minute, second, millisecond
	k := 0
	for i := 0; i < len(s); i++ {
		switch c := mastodonLayout[i]; c {
		case '-', 'T', ':', '.', 'Z':
			if s[i] != c {
				return time.Time{}, false
			}
			k++
		default:
			d := s[i] - '0'
			if d > 9 {
				return time.Time{}, false
			}
			f[k] = f[k]*10 + int(d)
		}
	}
	year, month, day := f[0], f[1], f[2]
	if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		f[3] > 23 || f[4] > 59 || f[5] > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, f[3], f[4], f[5], f[6]*int(time.Millisecond), time.UTC), true
}

// daysIn returns the length of the month in the proleptic Gregorian
// calendar, the one package time uses.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// CrawlSummary aggregates a crawl for reporting (the §3 coverage numbers).
type CrawlSummary struct {
	Online  int
	Blocked int
	Offline int
	Toots   int
	Authors int
}

// Summarize computes totals over crawl results.
func Summarize(results []InstanceCrawl) CrawlSummary {
	var s CrawlSummary
	authors := make(map[string]struct{}, authorsIn(results))
	for i := range results {
		r := &results[i]
		switch {
		case r.Blocked:
			s.Blocked++
		case r.Offline:
			s.Offline++
		default:
			s.Online++
		}
		s.Toots += r.Toots
		for _, a := range r.Authors {
			authors[a] = struct{}{}
		}
	}
	s.Authors = len(authors)
	return s
}

// Authors returns the distinct toot authors seen in a crawl, as
// user@domain strings in first-seen order — the user population whose
// follower lists the graph crawl scrapes (§3: "the 239K users we
// encountered who have tooted at least once") — and, aligned with them,
// how many of each author's toots complete harvests hold.
func Authors(results []InstanceCrawl) (authors []string, toots []int) {
	n := authorsIn(results)
	if n == 0 {
		return nil, nil
	}
	id := make(map[string]int, n)
	authors, toots = make([]string, 0, n), make([]int, 0, n)
	var ids []int // the crawl's author indexes, as ids
	for i := range results {
		r := &results[i]
		ids = ids[:0]
		for _, a := range r.Authors {
			k, ok := id[a]
			if !ok {
				k = len(authors)
				id[a] = k
				authors = append(authors, a)
				toots = append(toots, 0)
			}
			ids = append(ids, k)
		}
		if r.Complete() {
			for k, n := range r.AuthorToots {
				toots[ids[k]] += n
			}
		}
	}
	return authors, toots
}

// authorsIn is how many authors the crawls' tables name between them: the
// distinct authors over all of them, or more when a crawl names another's.
func authorsIn(results []InstanceCrawl) int {
	n := 0
	for i := range results {
		n += len(results[i].Authors)
	}
	return n
}

// Complete reports whether c harvested the whole timeline: the instance
// was reachable, did not refuse crawling, and no page failed. Only a
// complete harvest's toots are counted, and only it leaves a mark.
func (c *InstanceCrawl) Complete() bool {
	return !c.Blocked && !c.Offline && c.Err == nil
}
