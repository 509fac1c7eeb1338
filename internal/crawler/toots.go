package crawler

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// TootRec is one harvested toot: the fields the paper collected (username,
// toot URL, creation date, contents, hashtags; engagement counters are
// carried by the follower crawl).
type TootRec struct {
	ID        int64
	Acct      string // author as user@domain
	CreatedAt time.Time
	Content   string
	Hashtags  []string
	Boost     bool
}

// InstanceCrawl is the harvest of one instance.
type InstanceCrawl struct {
	Domain  string
	Toots   []TootRec
	Blocked bool // instance refuses crawling (403)
	Offline bool // instance unreachable
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

// TootCrawler pages through the public timelines of many instances
// concurrently — the "multi-threaded crawler ... parallelised across 10
// threads" of §3, with a token bucket standing in for its artificial delays.
// Crawl (lease.go) runs it; the client's Clock drives the lease deadlines.
type TootCrawler struct {
	Client   *Client
	Workers  int  // leased workers, one instance each (0 = 10, matching the paper)
	MaxToots int  // per-instance harvest cap (0 = unlimited)
	Local    bool // crawl the local timeline (true) or federated (false)
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
// one pooled scratch serve the whole paging loop.
func (tc *TootCrawler) CrawlInstance(ctx context.Context, domain string) InstanceCrawl {
	out := InstanceCrawl{Domain: domain}
	s := tootScratch.get()
	tc.harvest(ctx, &out, s)
	out.Toots = s.result()
	tootScratch.put(s)
	return out
}

var tootScratch scratchPool[TootRec]

// statusPage is Mastodon's cap on a timeline page, and what harvest asks for.
const statusPage = 40

// harvest is CrawlInstance's paging loop: it fills in everything but
// out.Toots and leaves the accepted records, newest first, in acc.
func (tc *TootCrawler) harvest(ctx context.Context, out *InstanceCrawl, acc *scratch[TootRec]) {
	domain := out.Domain
	local := "false"
	if tc.Local {
		local = "true"
	}
	since := tc.Since[domain]
	out.SinceID = since
	out.MaxID = since
	bp := getBuf()
	var body []byte
	defer func() { putBuf(bp, body) }()
	var maxID int64
	// One string per author, not per toot: a timeline names the same few
	// accounts page after page.
	var accts map[string]string
	base := "/api/v1/timelines/public?local=" + local + "&limit=" + strconv.Itoa(statusPage)
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
		acc.spill(statusPage)
		kept := len(acc.chunk)
		var pageErr error
		var err error
		// GetChecked always returns the current (possibly regrown) buffer.
		body, err = tc.Client.GetChecked(ctx, domain, path, (*bp)[:0], func(b []byte) error {
			acc.cut(kept)
			pageErr = nil
			return wire.ScanStatuses(b, func(v *wire.StatusView) {
				if pageErr != nil {
					return
				}
				rec, err := tootOf(v)
				if err != nil {
					pageErr = err
					return
				}
				acct, ok := accts[string(v.Acct)]
				if !ok {
					if accts == nil {
						accts = make(map[string]string)
					}
					acct = string(v.Acct)
					accts[acct] = acct
				}
				rec.Acct = acct
				acc.chunk = append(acc.chunk, rec)
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
			acc.cut(kept)
			return
		}
		out.Pages++
		if len(acc.chunk) == kept && pageErr == nil {
			return
		}
		for i := kept; i < len(acc.chunk); i++ {
			id := acc.chunk[i].ID
			if since > 0 && id <= since {
				// A server without since_id support paged past the mark:
				// everything from here back was already harvested.
				acc.cut(i)
				return
			}
			if id > out.MaxID {
				out.MaxID = id
			}
			if maxID == 0 || id < maxID {
				maxID = id
			}
			if tc.MaxToots > 0 && acc.n+i+1 >= tc.MaxToots {
				acc.cut(i + 1)
				return
			}
		}
		if pageErr != nil {
			out.Err = pageErr
			return
		}
	}
}

// tootOf reads one scanned status as a record, all of it but Acct: the
// caller has the string for that.
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
	return TootRec{
		ID:        id,
		CreatedAt: at,
		Content:   string(v.Content),
		Hashtags:  v.Tags,
		Boost:     v.Boost,
	}, nil
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
	Instances int
	Online    int
	Blocked   int
	Offline   int
	Toots     int
	Authors   int
}

// Summarize computes totals over crawl results.
func Summarize(results []InstanceCrawl) CrawlSummary {
	s := CrawlSummary{Instances: len(results)}
	authors := make(map[string]struct{})
	for _, r := range results {
		switch {
		case r.Blocked:
			s.Blocked++
		case r.Offline:
			s.Offline++
		default:
			s.Online++
		}
		s.Toots += len(r.Toots)
		for _, t := range r.Toots {
			authors[t.Acct] = struct{}{}
		}
	}
	s.Authors = len(authors)
	return s
}

// Authors returns the distinct toot authors seen in a crawl, as
// user@domain strings in first-seen order — the user population whose
// follower lists the graph crawl scrapes (§3: "the 239K users we
// encountered who have tooted at least once").
func Authors(results []InstanceCrawl) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, r := range results {
		for _, t := range r.Toots {
			if _, ok := seen[t.Acct]; ok {
				continue
			}
			seen[t.Acct] = struct{}{}
			out = append(out, t.Acct)
		}
	}
	return out
}

// SplitAcct splits user@domain; it returns ok=false for malformed accts.
func SplitAcct(acct string) (user, domain string, ok bool) {
	return dataset.SplitAcct(acct)
}
