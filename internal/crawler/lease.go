package crawler

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/vclock"
)

// leaseTTL is how long a domain stays with the worker that took it. It only
// matters once that worker has died: the domain is re-crawled leaseTTL after
// it was taken. A short TTL on a real clock would re-crawl domains that are
// merely slow.
const leaseTTL = 5 * time.Minute

// errDied is what a worker's fn returns to forEach when the worker dies
// mid-domain; forEach ends that worker.
var errDied = errors.New("crawler: worker died mid-domain")

// Kill scripts one worker death: whichever worker takes Domain in the
// crawl's first pass dies while crawling it, after fetching part of the
// timeline — the mid-domain crash the re-crawl exists for. The partial
// harvest is dropped. Keying the script on the domain rather than a worker
// makes the death schedule-independent: the first pass takes each domain
// exactly once, on every interleaving.
type Kill struct {
	Domain int
}

// CrawlStats summarises one crawl. Every field is fixed by the domain
// count, the worker count and the kill script, so scenario reports may
// assert them byte for byte.
type CrawlStats struct {
	Workers    int // worker goroutines launched
	Domains    int // domains to crawl
	Leases     int // domains taken, re-crawls included (= Domains + Reassigned)
	Abandoned  int // domains dropped by dying workers
	Reassigned int // dropped domains re-crawled by the survivors
	Dead       int // workers that died mid-domain
	// Quarantined counts domains whose harvest ended with a
	// quarantined-host result: the shared circuit breaker gave up on the
	// domain, the crawl fast-failed, and the domain completed normally
	// with the partial harvest — quarantine ends a domain's crawl, it
	// never leaves the domain for a re-crawl.
	Quarantined int
}

// Crawl harvests all domains with Workers workers and returns the harvests
// in domain order. The first pass crawls every domain in order; a worker
// the kill script names dies there. The second pass waits until leaseTTL
// after the last death, on the client's clock, and re-crawls every domain
// still unharvested with the surviving workers. Each harvest is one
// CrawlInstance, so the result does not depend on the worker count, the
// schedule or the kill script. It fails when ctx is cancelled or when
// every worker died with domains unharvested; every domain it did not
// finish then reads Offline with that error.
func (tc *TootCrawler) Crawl(ctx context.Context, domains []string) ([]InstanceCrawl, CrawlStats, error) {
	workers := tc.Workers
	if workers < 1 {
		workers = 10
	}
	clk := vclock.OrSystem(tc.Client.Clock)
	kill := make(map[int]bool, len(tc.Kill))
	for _, k := range tc.Kill {
		kill[k.Domain] = true
	}
	st := CrawlStats{Workers: workers, Domains: len(domains)}
	results := make([]InstanceCrawl, len(domains))
	done := make([]bool, len(domains)) // written by the one worker that harvests the domain

	var mu sync.Mutex // guards st and lastDeath while workers run
	var lastDeath time.Time
	harvest := func(ctx context.Context, d int) error {
		res := tc.CrawlInstance(ctx, domains[d])
		if err := ctx.Err(); err != nil {
			// A harvest cut by cancellation is not the domain's result.
			return err
		}
		results[d], done[d] = res, true
		if res.Quarantined {
			mu.Lock()
			st.Quarantined++
			mu.Unlock()
		}
		return nil
	}

	forEach(ctx, len(domains), workers, nil, func(ctx context.Context, d int) error {
		dies := kill[d]
		mu.Lock()
		st.Leases++
		if dies {
			st.Dead++
			st.Abandoned++
			lastDeath = clk.Now()
		}
		mu.Unlock()
		if dies {
			// Die mid-domain: harvest the first page only and drop it.
			partial := *tc
			partial.MaxToots = 1
			partial.CrawlInstance(ctx, domains[d])
			return errDied
		}
		return harvest(ctx, d)
	})

	var left []int
	for d, ok := range done {
		if !ok {
			left = append(left, d)
		}
	}
	if survivors := workers - st.Dead; len(left) > 0 && survivors > 0 && ctx.Err() == nil &&
		clk.Sleep(ctx, lastDeath.Add(leaseTTL).Sub(clk.Now())) == nil {
		st.Leases += len(left)
		st.Reassigned = len(left)
		forEach(ctx, len(left), survivors, nil, func(ctx context.Context, i int) error {
			return harvest(ctx, left[i])
		})
	}

	left = slices.DeleteFunc(left, func(d int) bool { return done[d] })
	err := ctx.Err()
	if err == nil && len(left) > 0 {
		err = fmt.Errorf("crawler: all %d workers dead with %d of %d domains unharvested",
			workers, len(left), len(domains))
	}
	if err != nil {
		for _, d := range left {
			results[d] = InstanceCrawl{Domain: domains[d], Offline: true, Err: err}
		}
	}
	return results, st, err
}
