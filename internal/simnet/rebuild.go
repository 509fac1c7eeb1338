package simnet

import (
	"strings"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/instance"
	"repro/internal/sim"
)

// This file closes the measurement loop: Rebuild turns raw campaign
// artefacts (probe log, toot harvest, follower scrape) back into a
// dataset.World, and ExpectedWorld derives — from generated ground truth
// and the §3 coverage rules — exactly what a flawless campaign must
// recover. A correct pipeline makes the two identical, byte for byte.
// Both builders normalise through dataset.Assemble, the same constructor
// the incremental-recrawl merge uses, so every world in the system is
// built one way.

// probedMeta reads a domain's §3 instance metadata off the probe log: the
// last online sample wins; a domain never seen online contributes nothing
// (Seen=false).
func probedMeta(log *crawler.ProbeLog, domain string) dataset.WindowMeta {
	s, ok := log.LastOnline(domain)
	if !ok {
		return dataset.WindowMeta{}
	}
	m := dataset.WindowMeta{Seen: true, Software: dataset.SoftwareMastodon, Open: s.Open, Users: s.Users, Toots: s.Toots}
	if strings.Contains(s.Version, "Pleroma") {
		m.Software = dataset.SoftwarePleroma
	}
	return m
}

// Rebuild reconstructs a world from campaign artefacts only — nothing from
// the generator crosses this boundary. Instance metadata comes from the
// last online probe sample, toot counts and authorship from the toot
// crawl, the social graph from the follower scrape, and the availability
// traces from the probe log.
func Rebuild(res *CampaignResult) (*dataset.World, []string) {
	parts := dataset.WorldParts{
		Accounts: make(map[string]struct{}, len(res.Authors)),
		TootsOf:  make(map[string]int, len(res.Authors)),
		Traces:   res.Traces,
		Days:     res.Traces.Slots() / dataset.SlotsPerDay,
	}
	parts.Instances = make([]dataset.Instance, len(res.Domains))
	for i, d := range res.Domains {
		in := dataset.Instance{ID: int32(i), Domain: d, GoneDay: -1}
		if m := probedMeta(res.Log, d); m.Seen {
			in.Software = m.Software
			in.Open = m.Open
			in.Users = m.Users
			in.Toots = m.Toots
		}
		parts.Instances[i] = in
	}
	parts.Provenance = make([]dataset.CrawlProvenance, len(res.Crawls))
	for i := range res.Crawls {
		c := &res.Crawls[i]
		switch {
		case c.Blocked:
			parts.Instances[i].BlocksCrawl = true
			parts.Provenance[i] = dataset.CrawlProvenance{Outcome: dataset.CrawlBlocked}
			continue
		case c.Err != nil || c.Offline:
			// A harvest that died mid-paging is a partial prefix of
			// unknown coverage; an unreachable instance harvested nothing.
			// Neither contributes toots — exactly what a clean crawl of an
			// offline instance records — but the provenance keeps the
			// distinction (and the fault) for the analysis layer.
			outcome := dataset.CrawlOffline
			if len(c.Toots) > 0 {
				outcome = dataset.CrawlPartial
			}
			var fault string
			if c.Err != nil {
				fault = c.Err.Error()
			}
			parts.Provenance[i] = dataset.CrawlProvenance{Outcome: outcome, Fault: fault}
			continue
		}
		parts.Provenance[i] = dataset.CrawlProvenance{Outcome: dataset.CrawlFull}
		for _, t := range c.Toots {
			parts.TootsOf[t.Acct]++
		}
	}
	for acct := range parts.TootsOf {
		parts.Accounts[acct] = struct{}{}
	}
	// A scrape lists one account's followers together, so To changes once
	// per scraped account, not once per edge.
	for i := range res.Scrape.Edges {
		e := &res.Scrape.Edges[i]
		parts.Accounts[e.From] = struct{}{}
		if i == 0 || e.To != res.Scrape.Edges[i-1].To {
			parts.Accounts[e.To] = struct{}{}
		}
	}
	parts.Edges = res.Scrape.Edges
	return dataset.Assemble(parts)
}

// ExpectedConfig mirrors the campaign parameters that shape coverage.
type ExpectedConfig struct {
	StartSlot int
	Slots     int
	// MaxTootsPerUser must match the harness's load cap (0 = 10).
	MaxTootsPerUser int
}

// ExpectedWorld computes the world a flawless campaign over truth must
// recover, from ground truth plus the §3 coverage rules: an instance
// contributes metadata iff it was up for at least one probed slot; its
// timeline is harvested iff it is up at the final slot and does not block
// crawling; an author is visible iff public with at least one toot on a
// harvested instance; and exactly the followers of visible authors are
// scraped.
func ExpectedWorld(w *dataset.World, cfg ExpectedConfig) (*dataset.World, []string) {
	cap := cfg.MaxTootsPerUser
	if cap <= 0 {
		cap = 10
	}
	finalSlot := cfg.StartSlot + cfg.Slots - 1
	upAt := func(i int32, slot int) bool { return !w.Traces.Traces[i].IsDown(slot) }

	parts := dataset.WorldParts{
		Accounts: make(map[string]struct{}),
		TootsOf:  make(map[string]int),
		Days:     cfg.Slots / dataset.SlotsPerDay,
	}

	// Per-instance loaded toot counters (what the live servers report).
	loadedToots := make([]int64, len(w.Instances))
	for _, u := range w.Users {
		c := u.Toots
		if c > cap {
			c = cap
		}
		loadedToots[u.Instance] += int64(c)
	}

	parts.Instances = make([]dataset.Instance, len(w.Instances))
	for i := range w.Instances {
		truth := &w.Instances[i]
		in := dataset.Instance{ID: int32(i), Domain: truth.Domain, GoneDay: -1}
		seenOnline := false
		for s := cfg.StartSlot; s <= finalSlot; s++ {
			if upAt(int32(i), s) {
				seenOnline = true
				break
			}
		}
		if seenOnline {
			in.Software = truth.Software
			in.Open = truth.Open
			in.Users = truth.Users
			in.Toots = loadedToots[i]
		}
		if truth.BlocksCrawl && upAt(int32(i), finalSlot) {
			in.BlocksCrawl = true
		}
		parts.Instances[i] = in
	}

	// Visible authors and their followers.
	acctOf := func(u *dataset.User) string {
		return instance.UserName(u.ID) + "@" + w.Instances[u.Instance].Domain
	}
	for ui := range w.Users {
		u := &w.Users[ui]
		truth := &w.Instances[u.Instance]
		if u.Private || u.Toots == 0 || truth.BlocksCrawl || !upAt(u.Instance, finalSlot) {
			continue
		}
		acct := acctOf(u)
		parts.Accounts[acct] = struct{}{}
		c := u.Toots
		if c > cap {
			c = cap
		}
		parts.TootsOf[acct] = c
		for _, v := range w.Social.In(int32(ui)) {
			follower := acctOf(&w.Users[v])
			parts.Accounts[follower] = struct{}{}
			parts.Edges = append(parts.Edges, crawler.Edge{From: follower, To: acct})
		}
	}

	// The trace window a perfect prober records.
	ts := &sim.TraceSet{SlotsPerDay: dataset.SlotsPerDay, Traces: make([]*sim.Trace, len(w.Instances))}
	for i := range w.Instances {
		tr := sim.NewTrace(cfg.Slots)
		for s := 0; s < cfg.Slots; s++ {
			if w.Traces.Traces[i].IsDown(cfg.StartSlot + s) {
				tr.SetDown(s)
			}
		}
		ts.Traces[i] = tr
	}
	parts.Traces = ts

	return dataset.Assemble(parts)
}
