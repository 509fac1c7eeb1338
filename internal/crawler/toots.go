package crawler

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/wire"
)

// TootRec is one harvested toot: the fields the paper collected (username,
// toot URL, creation date, contents, hashtags; engagement counters are
// carried by the follower crawl), as a fixed row. The author is an index
// into the crawl's Authors, and content and hashtags are spans into
// storage the crawl owns: read them with the crawl's Acct, Content and
// Hashtags.
type TootRec struct {
	ID        int64
	CreatedAt time.Time
	Author    int32  // index into InstanceCrawl.Authors
	text      uint32 // content[text:textEnd]
	textEnd   uint32
	tag       uint32 // tags[tag:tagEnd]
	tagEnd    uint32
	Boost     bool
}

// InstanceCrawl is the harvest of one instance.
type InstanceCrawl struct {
	Domain string
	Toots  []TootRec
	// Authors are the distinct authors of Toots as user@domain, in
	// first-seen order.
	Authors []string
	content string   // the toots' contents, back to back
	tags    []string // the toots' hashtags, back to back; a name is one string per crawl
	Blocked bool     // instance refuses crawling (403)
	Offline bool     // instance unreachable
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

// Acct returns t's author as user@domain.
func (c *InstanceCrawl) Acct(t TootRec) string { return c.Authors[t.Author] }

// Content returns t's content.
func (c *InstanceCrawl) Content(t TootRec) string { return c.content[t.text:t.textEnd] }

// Hashtags returns t's hashtag names, in order, or nil when it has none.
// The slice is the crawl's: a caller must not write to it.
func (c *InstanceCrawl) Hashtags(t TootRec) []string {
	if t.tag == t.tagEnd {
		return nil
	}
	return c.tags[t.tag:t.tagEnd:t.tagEnd]
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
	h := getHarvest()
	tc.harvest(ctx, &out, h)
	h.result(&out)
	putHarvest(h)
	return out
}

// statusPage is Mastodon's cap on a timeline page, and what harvest asks for.
const statusPage = 40

// harvest is CrawlInstance's paging loop: it fills in everything but
// the toots and leaves the accepted ones, newest first, in h.
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
		// attempt starts from the records accepted before it. A status that
		// is valid JSON but not a toot (pageErr) is not corruption: it ends
		// the harvest after the records ahead of it.
		h.recs.spill(statusPage)
		m := h.mark()
		var pageErr error
		var err error
		// GetChecked always returns the current (possibly regrown) buffer.
		body, err = tc.Client.GetChecked(ctx, domain, path, (*bp)[:0], func(b []byte) error {
			h.cut(m, m.recs)
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
			h.cut(m, m.recs)
			return
		}
		out.Pages++
		recs := h.recs.chunk
		if len(recs) == m.recs && pageErr == nil {
			return
		}
		for i := m.recs; i < len(recs); i++ {
			id := recs[i].ID
			if since > 0 && id <= since {
				// A server without since_id support paged past the mark:
				// everything from here back was already harvested.
				h.cut(m, i)
				return
			}
			if id > out.MaxID {
				out.MaxID = id
			}
			if maxID == 0 || id < maxID {
				maxID = id
			}
			if tc.MaxToots > 0 && h.recs.n+i+1 >= tc.MaxToots {
				h.cut(m, i+1)
				return
			}
		}
		if pageErr != nil {
			out.Err = pageErr
			return
		}
	}
}

// tootOf reads one scanned status's id, time and boost flag as a record:
// the rest of it goes to the harvest's storage.
func tootOf(v *wire.StatusView) (TootRec, error) {
	id, err := strconv.ParseInt(string(v.ID), 10, 64)
	if err != nil {
		return TootRec{}, fmt.Errorf("crawler: bad status id %q: %w", v.ID, err)
	}
	at, ok := mastodonTime(v.CreatedAt)
	if !ok {
		at, err = time.Parse(mastodonLayout, string(v.CreatedAt))
	}
	if err != nil {
		// Fall back to RFC3339 for non-Mastodon implementations.
		at, err = time.Parse(time.RFC3339, string(v.CreatedAt))
		if err != nil {
			return TootRec{}, fmt.Errorf("crawler: bad created_at %q", v.CreatedAt)
		}
	}
	return TootRec{ID: id, CreatedAt: at, Boost: v.Boost}, nil
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
		s.Toots += len(r.Toots)
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
			for _, t := range r.Toots {
				toots[ids[t.Author]]++
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
