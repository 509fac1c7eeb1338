package scenario

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/simnet"
)

// ChurnDuringCrawl replays §3's population dynamics live: two brand-new
// instances register mid-campaign, federate with the existing network, and
// must be picked up by the crawler.Discoverer snowball on its next round —
// without anyone telling the prober they exist. Later an original instance
// dies for good. The campaign's recovered datasets must show all of it: the
// newbies' backfilled-down-then-up traces, their toots and follower edges,
// and the victim's flatlined tail.
func ChurnDuringCrawl(seed uint64) *Scenario {
	if seed == 0 {
		seed = 23
	}
	const (
		startSlot     = 1 * dataset.SlotsPerDay
		slots         = 1 * dataset.SlotsPerDay
		discoverEvery = 48  // snowball rounds every 4 simulated hours
		registerAt    = 100 // newbies appear between rounds 96 and 144
		killAt        = 150
		newbies       = 2
		hosts         = 3 // existing instances the newbies federate with
	)

	var victim string

	sc := &Scenario{
		Name:          "churn-during-crawl",
		Title:         "Instances registering and dying mid-campaign, discovered by snowball",
		Paper:         "§3 (crawl population dynamics)",
		Seed:          seed,
		World:         quietWorld(15, 240, 6),
		Options:       baseOptions,
		StartSlot:     startSlot,
		Slots:         slots,
		DiscoverEvery: discoverEvery,
	}

	sc.Events = []Event{
		{
			At:   registerAt,
			Name: "register newbie instances",
			Do: func(ctx context.Context, r *Run) error {
				at := simnet.SlotTime(startSlot + registerAt)
				anchors, err := pickAnchors(r.World, hosts, func(int) bool { return true })
				if err != nil {
					return err
				}
				for k := 0; k < newbies; k++ {
					if _, err := registerNewbie(ctx, r, k, at, anchors); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			At:   killAt,
			Name: "kill an original instance",
			Do: func(ctx context.Context, r *Run) error {
				victim = r.World.Instances[len(r.World.Instances)-1].Domain
				r.Injector.Kill(victim)
				return nil
			},
		},
	}

	sc.Collect = func(r *Run, rep *Report) error {
		res := r.Result

		// When did the snowball first see the newbies, and did the monitor
		// then track them as up for the rest of the campaign?
		discSlot := newbieSlot(rep)
		rep.Add("discovery.newbie_slot", float64(discSlot))
		idx := make(map[string]int, len(res.Domains))
		for i, d := range res.Domains {
			idx[d] = i
		}
		if discSlot >= 0 {
			upFrac := 1.0
			backFrac := 0.0
			for k := 0; k < newbies; k++ {
				tr := res.Traces.Traces[idx[fmt.Sprintf("newbie-%d.sim", k)]]
				upFrac *= 1 - tr.DownFraction(discSlot, slots)
				backFrac += tr.DownFraction(0, discSlot) / newbies
			}
			rep.Add("monitor.newbie_up_frac", upFrac)
			rep.Add("monitor.newbie_backfill_down_frac", backFrac)
		}

		// The kill: the victim's recovered trace must flatline from the
		// kill slot to the end of the campaign.
		rep.Add("kill.victim_down_frac", res.Traces.Traces[idx[victim]].DownFraction(killAt, slots))

		// The crawl phase: newbie authors and their follower edges must be
		// harvested; the dead victim contributes nothing.
		newbieAuthors, victimAuthors := 0, 0
		for _, a := range res.Authors {
			switch {
			case strings.Contains(a, "@newbie-"):
				newbieAuthors++
			case strings.HasSuffix(a, "@"+victim):
				victimAuthors++
			}
		}
		newbieEdges := 0
		for i, fs := range res.Scrape.Followers {
			newbie := strings.Contains(res.Scrape.Accounts[i], "@newbie-")
			for _, f := range fs {
				if newbie || strings.Contains(res.Scrape.Accounts[f], "@newbie-") {
					newbieEdges++
				}
			}
		}
		rep.Add("crawl.newbie_authors", float64(newbieAuthors))
		rep.Add("crawl.victim_authors", float64(victimAuthors))
		rep.Add("crawl.newbie_edges", float64(newbieEdges))

		// The rebuilt world carries the grown population.
		recovered, _ := simnet.Rebuild(res)
		rep.Add("rebuild.instances", float64(len(recovered.Instances)))
		rep.Add("rebuild.users", float64(len(recovered.Users)))
		return nil
	}

	sc.Check = func(rep *Report) error {
		// The snowball must find the newbies on its first round after they
		// federate: registration at slot 100 → discovery round at 144.
		wantSlot := float64(((registerAt / discoverEvery) + 1) * discoverEvery)
		if got := rep.MustMetric("discovery.newbie_slot"); got != wantSlot {
			return fmt.Errorf("newbies discovered at slot %.0f, want the next snowball round at %.0f", got, wantSlot)
		}
		if got := rep.MustMetric("monitor.newbie_up_frac"); got != 1 {
			return fmt.Errorf("newbies not tracked as fully up after discovery (up frac %.4f)", got)
		}
		if got := rep.MustMetric("monitor.newbie_backfill_down_frac"); got != 1 {
			return fmt.Errorf("newbie pre-discovery past not backfilled as down (down frac %.4f)", got)
		}
		if got := rep.MustMetric("kill.victim_down_frac"); got != 1 {
			return fmt.Errorf("killed instance seen up after its death (down frac %.4f)", got)
		}
		if got := rep.MustMetric("crawl.newbie_authors"); got != newbies {
			return fmt.Errorf("crawl harvested %.0f newbie authors, want %d", got, newbies)
		}
		if got := rep.MustMetric("crawl.victim_authors"); got != 0 {
			return fmt.Errorf("crawl harvested %.0f authors from the dead victim", got)
		}
		if got := rep.MustMetric("crawl.newbie_edges"); got < newbies {
			return fmt.Errorf("scrape recovered %.0f newbie follower edges, want at least %d", got, newbies)
		}
		if got := rep.MustMetric("rebuild.instances"); got != float64(rep.FinalDomains) {
			return fmt.Errorf("rebuilt world has %.0f instances, want the full grown population %d", got, rep.FinalDomains)
		}
		return nil
	}
	return sc
}
