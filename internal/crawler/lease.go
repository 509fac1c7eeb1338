package crawler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/vclock"
)

// leaseTTL is how long a lease stays with its holder. A deadline only
// matters once a worker has died holding the lease; a short one on a real
// clock would re-crawl domains that are merely slow.
const leaseTTL = 5 * time.Minute

// Kill scripts one worker death: whichever worker first leases Domain (the
// domain's epoch-1 lease) dies while holding it, after fetching part of the
// timeline — the mid-domain crash the lease deadlines exist for. The
// partial harvest never reaches the frontier. Keying the script on the
// domain rather than a worker makes the death schedule-independent: the
// domain is leased exactly once before any re-issue, on every interleaving.
type Kill struct {
	Domain int
}

// CrawlStats summarises one crawl's leases. Every field is fixed by the
// domain count, the worker count and the kill script, so scenario reports
// may assert them byte for byte.
type CrawlStats struct {
	Workers    int // worker goroutines launched
	Domains    int // domains in the frontier
	Leases     int // leases issued, including re-issues (= Domains + Reassigned)
	Abandoned  int // leases dropped by dying workers
	Reassigned int // abandoned leases re-issued after their deadline
	Dead       int // workers that died mid-domain
	// Quarantined counts leases completed with a quarantined-host result:
	// the shared circuit breaker gave up on the domain, the crawl
	// fast-failed, and the lease completed normally with the partial
	// harvest — quarantine ends a domain's crawl, it never wedges its
	// lease.
	Quarantined int
}

// Crawl harvests all domains with Workers leased workers and returns the
// harvests in domain order. Each harvest is one CrawlInstance, so the
// result does not depend on the worker count, the schedule or the kill
// script. It fails when ctx is cancelled or when every worker died with
// domains unharvested; every domain it did not finish then reads Offline
// with that error.
func (tc *TootCrawler) Crawl(ctx context.Context, domains []string) ([]InstanceCrawl, CrawlStats, error) {
	workers := tc.Workers
	if workers < 1 {
		workers = 10
	}
	fr := newFrontier(len(domains), vclock.OrSystem(tc.Client.Clock))
	fr.stats.Workers = workers

	// Cancellation must reach workers parked in the frontier's cond wait.
	stop := context.AfterFunc(ctx, func() {
		fr.mu.Lock()
		fr.cond.Broadcast()
		fr.mu.Unlock()
	})
	defer stop()

	kill := make(map[int]bool, len(tc.Kill))
	for _, k := range tc.Kill {
		kill[k.Domain] = true
	}
	results := make([]InstanceCrawl, len(domains))
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			tc.work(ctx, fr, domains, results, kill)
		}()
	}
	wg.Wait()

	err := ctx.Err()
	if err == nil && fr.remaining > 0 {
		err = fmt.Errorf("crawler: all %d workers dead with %d of %d domains unharvested",
			workers, fr.remaining, len(domains))
	}
	if err != nil {
		for i, done := range fr.done {
			if !done {
				results[i] = InstanceCrawl{Domain: domains[i], Offline: true, Err: err}
			}
		}
	}
	return results, fr.stats, err
}

// work is one worker's lease loop: pop a domain, harvest it, report. A
// scripted kill fires while the worker holds a kill domain's first lease:
// it fetches part of the timeline, then dies silently — no report, just a
// lease that will expire.
func (tc *TootCrawler) work(ctx context.Context, fr *frontier, domains []string, results []InstanceCrawl, kill map[int]bool) {
	for {
		l, ok := fr.pop(ctx)
		if !ok {
			return
		}
		if kill[l.domain] && l.epoch == 1 {
			// Die mid-domain: harvest the first page only and drop it. To
			// the frontier this is a crash between two page fetches.
			partial := *tc
			partial.MaxToots = 1
			partial.CrawlInstance(ctx, domains[l.domain])
			fr.abandon(l)
			return
		}
		res := tc.CrawlInstance(ctx, domains[l.domain])
		if ctx.Err() != nil {
			// A harvest cut by cancellation is not the domain's result.
			return
		}
		if fr.report(l, res.Quarantined) {
			// report granted this lease the domain's one completion, so
			// the slot write is race-free.
			results[l.domain] = res
		}
	}
}

// lease is one outstanding domain assignment. A lease whose holder dies is
// re-issued under the next epoch once its deadline passes; the epoch lets
// the frontier discard a report from a superseded holder.
type lease struct {
	domain   int
	epoch    int       // re-issue counter for this domain (first issue = 1)
	deadline time.Time // on the crawl's clock
	// abandoned marks a lease whose holder died without reporting; it is
	// re-issued once the deadline passes. Guarded by the frontier mutex.
	abandoned bool
}

// frontier hands out domains in order, then re-issues abandoned leases
// whose deadline has passed, sleeping on the crawl's clock until the
// earliest one. Pops block on a cond while live workers still hold leases,
// so the frontier never spins and never reclaims a domain from a worker
// that is merely slow.
type frontier struct {
	clk vclock.Clock

	mu        sync.Mutex
	cond      *sync.Cond
	next      int            // the next domain never leased
	leases    map[int]*lease // outstanding, by domain
	done      []bool         // per-domain completion
	remaining int            // domains not yet reported
	stats     CrawlStats
}

func newFrontier(domains int, clk vclock.Clock) *frontier {
	f := &frontier{
		clk:       clk,
		leases:    make(map[int]*lease),
		done:      make([]bool, domains),
		remaining: domains,
		stats:     CrawlStats{Domains: domains},
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// issueLocked creates (or re-issues) the lease for domain d; f.mu must be
// held.
func (f *frontier) issueLocked(d int) *lease {
	epoch := 1
	if old := f.leases[d]; old != nil {
		epoch = old.epoch + 1
	}
	l := &lease{domain: d, epoch: epoch, deadline: f.clk.Now().Add(leaseTTL)}
	f.leases[d] = l
	f.stats.Leases++
	return l
}

// pop hands out the next lease. It blocks until one is available, every
// domain is done (ok=false), or ctx is cancelled (ok=false). The order is:
// the next never-leased domain, the lowest-indexed expired abandoned
// lease, a sleep until the earliest abandoned deadline, a wait for live
// leases to report.
func (f *frontier) pop(ctx context.Context) (l *lease, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if ctx.Err() != nil || f.remaining == 0 {
			return nil, false
		}
		if f.next < len(f.done) {
			f.next++
			return f.issueLocked(f.next - 1), true
		}
		now := f.clk.Now()
		expired, earliest := -1, time.Time{}
		for d, cand := range f.leases {
			if !cand.abandoned {
				continue
			}
			if !cand.deadline.After(now) {
				if expired < 0 || d < expired {
					expired = d
				}
			} else if earliest.IsZero() || cand.deadline.Before(earliest) {
				earliest = cand.deadline
			}
		}
		if expired >= 0 {
			f.stats.Reassigned++
			return f.issueLocked(expired), true
		}
		if !earliest.IsZero() {
			// Sleep on the crawl's clock until the deadline, then rescan.
			// On an elastic sim clock this advances time and returns at once.
			f.mu.Unlock()
			err := f.clk.Sleep(ctx, earliest.Sub(now))
			f.mu.Lock()
			if err != nil {
				return nil, false
			}
			continue
		}
		// Every domain is leased to a live worker: wait for a report, an
		// abandon or cancellation (Crawl broadcasts on ctx.Done).
		f.cond.Wait()
	}
}

// report completes a lease. It returns true iff the lease is still the
// current issue for its domain — exactly one report per domain is ever
// accepted, so a superseded holder's harvest is discarded.
func (f *frontier) report(l *lease, quarantined bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.leases[l.domain] != l {
		return false
	}
	f.done[l.domain] = true
	delete(f.leases, l.domain)
	f.remaining--
	if quarantined {
		f.stats.Quarantined++
	}
	f.cond.Broadcast()
	return true
}

// abandon is a worker's death while holding l: the domain is re-issued once
// the lease deadline passes. Only an epoch-1 lease is ever abandoned, and
// nothing supersedes a lease before its abandonment, so l is current. Idle
// workers are woken so one of them can start sleeping towards the deadline.
func (f *frontier) abandon(l *lease) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l.abandoned = true
	f.stats.Abandoned++
	f.stats.Dead++
	f.cond.Broadcast()
}
