package simnet

import (
	"fmt"

	"repro/internal/crawler"
	"repro/internal/dataset"
)

// This file is the incremental-recrawl side of the campaign pipeline. A
// finished campaign window summarises into a Checkpoint (per-domain toot
// high-water marks plus the harvested author lists); a later campaign run
// with CampaignConfig.Resume set fetches only content past those marks;
// and DeltaOf turns the delta campaign's artefacts into the
// dataset.WindowDelta that dataset.Merge folds into the earlier window's
// world. The merge output is byte-identical to a single full crawl over
// the union window — the equivalence the incremental-recrawl scenario and
// TestIncrementalCampaignMatchesFull pin.

// Checkpoint is what one campaign window hands to the next: enough to
// resume crawling where it left off. Only domains whose timeline was
// harvested completely (reachable, not blocking, no crawl error) appear;
// anything else has no trustworthy mark to resume from and is refetched
// in full next time.
type Checkpoint struct {
	// StartSlot/Slots locate the window; the next window must start at
	// StartSlot+Slots for its delta to merge contiguously.
	StartSlot int
	Slots     int
	// HighWater maps each harvested domain to the largest toot id seen
	// (0 when its timeline was empty).
	HighWater map[string]int64
	// Authors lists each harvested domain's toot authors in first-seen
	// order — the carried population a delta campaign must still scrape.
	Authors map[string][]string
}

// NewCheckpoint summarises a campaign result into the resume state for the
// next window. Its marks are crawler.Marks, the one statement of which
// harvests count as complete; only those domains carry authors.
func NewCheckpoint(res *CampaignResult) *Checkpoint {
	ck := &Checkpoint{
		StartSlot: res.StartSlot,
		Slots:     res.Traces.Slots(),
		HighWater: crawler.Marks(res.Crawls),
		Authors:   make(map[string][]string),
	}
	for i := range res.Crawls {
		c := &res.Crawls[i]
		if _, marked := ck.HighWater[c.Domain]; !marked {
			continue
		}
		ck.Authors[c.Domain] = c.Authors
	}
	return ck
}

// UnionAuthors computes the author population a delta campaign must
// scrape: for every domain whose delta crawl succeeded, the authors
// carried from the checkpoint (when the crawl resumed from a high-water
// mark) followed by the window's new authors. Domains offline or blocked
// at the delta crawl contribute nothing — a full crawl at the same instant
// would not have seen their timelines either. Aligned with the authors, it
// returns how many toots of each this window's complete harvests hold.
func UnionAuthors(ck *Checkpoint, crawls []crawler.InstanceCrawl) (authors []string, toots []int) {
	id := make(map[string]int)
	var ids []int // a crawl's author indexes, as ids
	add := func(acct string) int {
		k, ok := id[acct]
		if !ok {
			k = len(authors)
			id[acct] = k
			authors = append(authors, acct)
			toots = append(toots, 0)
		}
		return k
	}
	for i := range crawls {
		c := &crawls[i]
		if c.Blocked || c.Offline {
			continue
		}
		if _, resumed := ck.HighWater[c.Domain]; resumed {
			for _, a := range ck.Authors[c.Domain] {
				add(a)
			}
		}
		ids = ids[:0]
		for _, a := range c.Authors {
			ids = append(ids, add(a))
		}
		if c.Complete() {
			for k, n := range c.AuthorToots {
				toots[ids[k]] += n
			}
		}
	}
	return authors, toots
}

// DeltaOf converts a delta campaign's artefacts into the dataset-layer
// window delta that dataset.Merge folds into the previous window's world.
// The campaign must have been run with Resume set to ck, immediately after
// the checkpointed window (contiguous slots), over a population containing
// every checkpointed domain.
func DeltaOf(res *CampaignResult, ck *Checkpoint) (*dataset.WindowDelta, error) {
	if res.StartSlot != ck.StartSlot+ck.Slots {
		return nil, fmt.Errorf("simnet: delta window starts at slot %d, checkpoint ends at %d",
			res.StartSlot, ck.StartSlot+ck.Slots)
	}
	if len(res.Crawls) != len(res.Domains) {
		return nil, fmt.Errorf("simnet: delta campaign has %d crawls for %d domains",
			len(res.Crawls), len(res.Domains))
	}
	d := &dataset.WindowDelta{
		// Merge coordinates are relative to the previous window's world,
		// whose traces cover [0, ck.Slots).
		StartSlot: ck.Slots,
		Slots:     res.Traces.Slots(),
		Domains:   append([]string(nil), res.Domains...),
		Traces:    res.Traces,
		Meta:      make([]dataset.WindowMeta, len(res.Domains)),
		Crawl:     make([]dataset.CrawlOutcome, len(res.Domains)),
		TootsOf:   make(map[string]int),
		Accounts:  res.Scrape.Accounts,
		Followers: res.Scrape.Followers,
	}
	for i, acct := range res.Authors {
		if n := res.AuthorToots[i]; n > 0 {
			d.TootsOf[acct] = n
		}
	}
	for i, dom := range res.Domains {
		d.Meta[i] = probedMeta(res.Log, dom)
		c := &res.Crawls[i]
		switch {
		case c.Blocked:
			d.Crawl[i] = dataset.CrawlBlocked
		case c.Offline || c.Err != nil:
			// A harvest that died mid-paging (quarantine, byzantine fault)
			// salvaged a prefix that is not trustworthy delta data.
			d.Crawl[i] = dataset.CrawlOffline
		case c.SinceID > 0:
			d.Crawl[i] = dataset.CrawlDelta
		default:
			// No high-water mark: either the domain was not checkpointed
			// (offline or unknown last window) or its timeline was empty;
			// both resume as a full harvest.
			d.Crawl[i] = dataset.CrawlFull
		}
	}
	return d, nil
}
