package dataset

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// This file implements the incremental-recrawl merge: folding the
// observations of one or more later campaign windows (probes, delta-fetched
// toots, a fresh follower scrape) into a world recovered from an earlier
// window. The output is byte-stable — built through Assemble, the same
// canonical constructor every rebuilt world uses — and obeys the §3
// coverage rules of a single campaign over the union window:
//
//   - instance metadata comes from the last online probe sample anywhere in
//     the union window (a later window's sighting supersedes an earlier one);
//   - a timeline contributes toots iff its instance was harvestable at the
//     END of the union window: a delta-fetched harvest extends the carried
//     one, a full refetch replaces it, and an instance offline or blocking
//     at the final crawl contributes nothing, no matter what earlier windows
//     saw;
//   - follower edges come from the final window's scrape alone (follower
//     pages carry no timestamps, so there is no delta to fetch — exactly the
//     paper's constraint);
//   - availability traces concatenate, with a domain's unobserved windows
//     backfilled as down (unprobed = unobserved = unreachable to the index).
//
// Because Merge is deterministic and windows are disjoint, folding several
// deltas is order-independent: Merge sorts them by StartSlot before folding,
// so handing it (A, B) or (B, A) produces identical bytes — the property
// FuzzWorldMerge pins.

// CrawlOutcome classifies what the crawl at the end of a delta window saw
// for one domain.
type CrawlOutcome uint8

// Crawl outcomes of one domain in a delta window.
const (
	// CrawlOffline: the instance was unreachable at the window-end crawl,
	// or its harvest died mid-paging (a quarantined host, a byzantine
	// fault); it contributes no toots to the merged world (its carried
	// harvest is dropped, as a full union-window crawl would have found
	// nothing, and a salvaged prefix of unknown length is not trusted).
	CrawlOffline CrawlOutcome = iota
	// CrawlBlocked: the instance refused timeline crawling (403).
	CrawlBlocked
	// CrawlFull: the whole timeline was (re)fetched; its toot counts
	// replace anything carried from earlier windows.
	CrawlFull
	// CrawlDelta: only toots past the carried high-water mark were fetched;
	// its toot counts extend the carried harvest.
	CrawlDelta
)

// WindowMeta is the instance-API metadata recovered from a delta window's
// probes: the last online sample, or Seen=false when the instance never
// answered during the window (carried metadata then survives).
type WindowMeta struct {
	Seen     bool
	Software Software
	Open     bool
	Users    int
	Toots    int64
}

// WindowDelta is one later campaign window's worth of observations, ready
// to fold into an earlier world. Domains lists the probed population in
// probe order; Traces, Meta and Crawl are aligned with it.
type WindowDelta struct {
	// StartSlot is the window's first slot in merged-trace coordinates:
	// the first delta after a world covering N slots starts at N.
	StartSlot int
	// Slots is the number of probe rounds in the window.
	Slots int

	Domains []string
	// Traces holds the window's availability record, window-relative
	// (slot 0 = StartSlot), aligned with Domains.
	Traces *sim.TraceSet
	Meta   []WindowMeta
	Crawl  []CrawlOutcome

	// TootsOf counts the toots harvested this window per account. Every
	// account must live on a domain whose outcome is CrawlFull or
	// CrawlDelta.
	TootsOf map[string]int

	// Accounts and Followers are the window-end follower scrape over the
	// union author set, in WorldParts' form: Followers[id] lists the ids of
	// Accounts[id]'s followers. The scrape of the latest window replaces
	// all earlier ones.
	Accounts  []string
	Followers [][]int32
}

func (d *WindowDelta) validate() error {
	if d.Slots <= 0 {
		return fmt.Errorf("dataset: merge: window at slot %d has %d slots", d.StartSlot, d.Slots)
	}
	if len(d.Meta) != len(d.Domains) || len(d.Crawl) != len(d.Domains) {
		return fmt.Errorf("dataset: merge: window at slot %d: %d domains, %d meta, %d crawl",
			d.StartSlot, len(d.Domains), len(d.Meta), len(d.Crawl))
	}
	if len(d.Domains) > 0 {
		if d.Traces == nil || d.Traces.Len() != len(d.Domains) {
			return fmt.Errorf("dataset: merge: window at slot %d: traces misaligned with %d domains",
				d.StartSlot, len(d.Domains))
		}
		for i, tr := range d.Traces.Traces {
			if tr == nil || tr.N() != d.Slots {
				return fmt.Errorf("dataset: merge: window at slot %d: trace %d does not cover %d slots",
					d.StartSlot, i, d.Slots)
			}
		}
	}
	seen := make(map[string]struct{}, len(d.Domains))
	for _, dom := range d.Domains {
		if _, dup := seen[dom]; dup {
			return fmt.Errorf("dataset: merge: window at slot %d probes %q twice", d.StartSlot, dom)
		}
		seen[dom] = struct{}{}
	}
	if len(d.Followers) > len(d.Accounts) {
		return fmt.Errorf("dataset: merge: window at slot %d: follower lists for %d of %d accounts",
			d.StartSlot, len(d.Followers), len(d.Accounts))
	}
	for a, fs := range d.Followers {
		for _, f := range fs {
			if f < 0 || int(f) >= len(d.Accounts) {
				return fmt.Errorf("dataset: merge: window at slot %d: %q has follower id %d of %d accounts",
					d.StartSlot, d.Accounts[a], f, len(d.Accounts))
			}
		}
	}
	for acct, n := range d.TootsOf {
		if n <= 0 {
			return fmt.Errorf("dataset: merge: window at slot %d: account %q has %d toots", d.StartSlot, acct, n)
		}
		_, dom, ok := SplitAcct(acct)
		if !ok {
			return fmt.Errorf("dataset: merge: window at slot %d: malformed account %q", d.StartSlot, acct)
		}
		if _, probed := seen[dom]; !probed {
			return fmt.Errorf("dataset: merge: window at slot %d: toots from unprobed domain %q", d.StartSlot, dom)
		}
	}
	return nil
}

// Merge folds one or more window deltas into the world recovered from an
// earlier campaign window. prevNames must be the account names of prev's
// user ids, exactly as returned by Assemble (or a previous Merge). Deltas
// are sorted by StartSlot and must tile the slots after prev contiguously;
// overlaps and gaps are errors. The result is a fresh world (prev is not
// modified) plus its account names, built byte-stably: merging the same
// inputs always yields identical Save/encode bytes, regardless of the
// order the deltas were passed in.
func Merge(prev *World, prevNames []string, deltas ...*WindowDelta) (*World, []string, error) {
	if prev == nil || prev.Traces == nil {
		return nil, nil, fmt.Errorf("dataset: merge: previous world has no traces")
	}
	if len(prevNames) != len(prev.Users) {
		return nil, nil, fmt.Errorf("dataset: merge: %d names for %d users", len(prevNames), len(prev.Users))
	}
	if prev.Traces.Len() != len(prev.Instances) {
		return nil, nil, fmt.Errorf("dataset: merge: previous world has %d traces for %d instances",
			prev.Traces.Len(), len(prev.Instances))
	}
	if len(deltas) == 0 {
		return nil, nil, fmt.Errorf("dataset: merge: no delta windows")
	}

	ordered := append([]*WindowDelta(nil), deltas...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartSlot < ordered[j].StartSlot })
	prevSlots := prev.Traces.Slots()
	cursor := prevSlots
	for _, d := range ordered {
		if err := d.validate(); err != nil {
			return nil, nil, err
		}
		if d.StartSlot != cursor {
			return nil, nil, fmt.Errorf("dataset: merge: window starts at slot %d, want contiguous slot %d",
				d.StartSlot, cursor)
		}
		cursor += d.Slots
	}
	totalSlots := cursor

	// The merged probe population: prev's instances in order, then new
	// domains in first-seen (window, probe) order.
	domains := make([]string, 0, len(prev.Instances))
	domIdx := make(map[string]int, len(prev.Instances))
	insts := make([]Instance, 0, len(prev.Instances))
	for i := range prev.Instances {
		in := prev.Instances[i]
		domains = append(domains, in.Domain)
		domIdx[in.Domain] = i
		insts = append(insts, in)
	}
	for _, d := range ordered {
		for _, dom := range d.Domains {
			if _, known := domIdx[dom]; !known {
				domIdx[dom] = len(domains)
				domains = append(domains, dom)
				insts = append(insts, Instance{Domain: dom, GoneDay: -1})
			}
		}
	}

	// Carried per-account harvest: prev users with at least one toot.
	counts := make(map[string]int, len(prevNames))
	for i, acct := range prevNames {
		if prev.Users[i].Toots > 0 {
			counts[acct] = int(prev.Users[i].Toots)
		}
	}

	var scrape *WindowDelta
	for _, d := range ordered {
		present := make(map[string]CrawlOutcome, len(d.Domains))
		for i, dom := range d.Domains {
			present[dom] = d.Crawl[i]
			if d.Meta[i].Seen {
				in := &insts[domIdx[dom]]
				in.Software = d.Meta[i].Software
				in.Open = d.Meta[i].Open
				in.Users = d.Meta[i].Users
				in.Toots = d.Meta[i].Toots
			}
		}
		// Every domain's crawl state is rewritten by each window: a domain
		// the window could not harvest — offline, blocked, or not probed at
		// all — drops its carried harvest, exactly as a single crawl at this
		// window's end would have found nothing there.
		for k := range insts {
			outcome, probed := present[insts[k].Domain]
			insts[k].BlocksCrawl = probed && outcome == CrawlBlocked
		}
		for acct := range counts {
			_, dom, _ := SplitAcct(acct)
			if outcome, probed := present[dom]; !probed || outcome != CrawlDelta {
				delete(counts, acct)
			}
		}
		for acct, n := range d.TootsOf {
			_, dom, _ := SplitAcct(acct)
			switch present[dom] {
			case CrawlFull, CrawlDelta:
				counts[acct] += n
			default:
				return nil, nil, fmt.Errorf("dataset: merge: window at slot %d harvested %q from domain %q with outcome %d",
					d.StartSlot, acct, dom, present[dom])
			}
		}
		scrape = d
	}

	// Concatenated traces: unobserved windows (a domain missing from a
	// window, or predating its first sighting) are backfilled as down.
	spd := prev.Traces.SlotsPerDay
	if spd == 0 {
		spd = SlotsPerDay
	}
	windowIdx := make([]map[string]int, len(ordered))
	for k, d := range ordered {
		windowIdx[k] = make(map[string]int, len(d.Domains))
		for j, dom := range d.Domains {
			windowIdx[k][dom] = j
		}
	}
	ts := &sim.TraceSet{SlotsPerDay: spd, Traces: make([]*sim.Trace, len(domains))}
	for i, dom := range domains {
		tr := sim.NewTrace(totalSlots)
		if i < len(prev.Instances) {
			tr.CopyDown(prev.Traces.Traces[i], 0, prevSlots, 0)
		} else {
			tr.SetDownRange(0, prevSlots)
		}
		for k, d := range ordered {
			j, probed := windowIdx[k][dom]
			if !probed {
				tr.SetDownRange(d.StartSlot, d.StartSlot+d.Slots)
				continue
			}
			tr.CopyDown(d.Traces.Traces[j], 0, d.Slots, d.StartSlot)
		}
		ts.Traces[i] = tr
	}

	// The accounts are the final scrape's, then every account with toots:
	// one that is both is named twice, and Assemble makes it one user.
	parts := WorldParts{
		Instances: insts,
		Accounts:  slices.Grow(slices.Clone(scrape.Accounts), len(counts)),
		Followers: scrape.Followers,
		Traces:    ts,
		Days:      totalSlots / spd,
	}
	for i := range insts {
		insts[i].ID = int32(i)
	}
	parts.Toots = make([]int, len(parts.Accounts), cap(parts.Accounts))
	for acct, n := range counts {
		parts.Accounts = append(parts.Accounts, acct)
		parts.Toots = append(parts.Toots, n)
	}
	w, names := Assemble(parts)
	w.Seed = prev.Seed
	return w, names, nil
}
