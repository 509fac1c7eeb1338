package scenario

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/simnet"
)

// IncrementalRecrawl closes the crawl→world loop twice: campaign window A
// is crawled and checkpointed mid-run, fresh content appears (new toots,
// new accounts, new follow edges), the campaign keeps probing, and at the
// end the delta path — a since-marker toot crawl plus a union-author
// scrape — is folded into window A's world through dataset.Merge. The
// oracle is exact: the merged world must be byte-identical (dataset.Save
// bytes and account names) to the world rebuilt from the engine's own
// single full crawl over the union window, while the delta crawl refetches
// none of window A's corpus. This is the longitudinal-measurement story of
// the paper — repeated crawls of the same fediverse — run as one
// deterministic scenario.
func IncrementalRecrawl(seed uint64) *Scenario {
	if seed == 0 {
		seed = 32
	}
	const (
		startSlot    = 1 * dataset.SlotsPerDay
		slots        = 2 * dataset.SlotsPerDay
		checkpointAt = 1 * dataset.SlotsPerDay // window A = first day, window B = second
		postAt       = checkpointAt + 112      // fresh content appears mid-window-B
		anchorsN     = 3
		freshToots   = 2 // new toots per anchor author
	)

	var (
		snap   *Snapshot
		ck     *simnet.Checkpoint
		posted int
	)

	sc := &Scenario{
		Name:  "incremental-recrawl",
		Title: "Delta recrawl merged into an earlier window, byte-equal to one full crawl",
		Paper: "§3 (longitudinal crawls), §4.4 (availability over windows)",
		Seed:  seed,
		World: func(seed uint64) *dataset.World {
			cfg := gen.TinyConfig(seed)
			cfg.Instances = 12
			cfg.Users = 200
			cfg.Days = 4
			return gen.Generate(cfg)
		},
		Options:   baseOptions,
		StartSlot: startSlot,
		Slots:     slots,
	}

	sc.Events = []Event{
		{
			At:   checkpointAt,
			Name: "crawl and checkpoint window A",
			Do: func(ctx context.Context, r *Run) error {
				var err error
				if snap, err = r.CrawlNow(ctx); err != nil {
					return err
				}
				ck = simnet.NewCheckpoint(snap.Res)
				if len(ck.HighWater) == 0 {
					return fmt.Errorf("window A harvested no timelines")
				}
				return nil
			},
		},
		{
			At:   postAt,
			Name: "fresh content lands mid-window-B",
			Do: func(ctx context.Context, r *Run) error {
				// Authors up (per ground truth) at both crawl instants, on
				// instances that do not block crawling: their fresh posts
				// must land in the delta window on both sides of the
				// equivalence.
				anchors, err := pickAnchors(r.World, anchorsN, func(i int) bool {
					tr := r.World.Traces.Traces[i]
					return !r.World.Instances[i].BlocksCrawl && !tr.IsDown(startSlot+checkpointAt-1) && !tr.IsDown(startSlot+slots-1)
				})
				if err != nil {
					return err
				}
				posted = 0
				at := simnet.SlotTime(startSlot + postAt)
				for k, anchor := range anchors {
					srv := r.H.Net.Server(anchor.Domain)
					if srv == nil {
						return fmt.Errorf("no server for anchor domain %s", anchor.Domain)
					}
					for i := 0; i < freshToots; i++ {
						content := fmt.Sprintf("delta toot %d by %s", i, anchor.User)
						if _, err := srv.PostToot(ctx, anchor.User, content, nil, at.Add(time.Duration(i)*time.Minute)); err != nil {
							return err
						}
						posted++
					}
					// A brand-new account toots once and follows the anchor,
					// so window B changes the author set and the follower
					// pages, not just the toot counts.
					fresh := fmt.Sprintf("fresh%d", k)
					if _, err := srv.CreateAccount(fresh, false, true, at); err != nil {
						return err
					}
					if _, err := srv.PostToot(ctx, fresh, "hello from "+fresh, nil, at.Add(time.Hour)); err != nil {
						return err
					}
					posted++
					if err := srv.FollowLocal(fresh, anchor.User); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}

	sc.Collect = func(r *Run, rep *Report) error {
		if snap == nil || ck == nil {
			return fmt.Errorf("checkpoint event never fired")
		}
		ctx := context.Background()
		res := r.Result
		fullWorld, fullNames := simnet.Rebuild(res)

		// The delta path: a since-marker crawl and a union-author scrape
		// against the network exactly as the engine's full crawl saw it.
		logB := crawler.NewProbeLog()
		for _, d := range res.Domains {
			logB.Add(r.Log.Samples(d)[checkpointAt:])
		}
		resB := &simnet.CampaignResult{
			Domains:   res.Domains,
			Log:       logB,
			Traces:    res.Traces.Window(checkpointAt, slots),
			StartSlot: startSlot + checkpointAt,
		}
		if err := r.H.CrawlPhase(ctx, simnet.CampaignConfig{Resume: ck}, resB); err != nil {
			return err
		}
		crawls := resB.Crawls
		if len(resB.Scrape.Errors) != 0 {
			return fmt.Errorf("delta scrape errors: %v", resB.Scrape.Errors)
		}
		delta, err := simnet.DeltaOf(resB, ck)
		if err != nil {
			return err
		}
		merged, mergedNames, err := dataset.Merge(snap.World, snap.Names, delta)
		if err != nil {
			return err
		}

		same, err := sameBytes(merged, fullWorld)
		if err != nil {
			return err
		}
		rep.Add("merge.byte_equal", b2f(same))
		rep.Add("merge.names_equal", b2f(slices.Equal(mergedNames, fullNames)))

		deltaToots, newToots, fullToots := 0, 0, 0
		deltaDomains, refetchDomains := 0, 0
		for i := range crawls {
			c := &crawls[i]
			deltaToots += c.Toots
			if c.Blocked || c.Offline {
				continue
			}
			if c.SinceID > 0 {
				deltaDomains++
				newToots += c.Toots
			} else {
				refetchDomains++
			}
		}
		for i := range res.Crawls {
			fullToots += res.Crawls[i].Toots
		}
		rep.Add("crawl.delta_toots", float64(deltaToots))
		rep.Add("crawl.new_toots", float64(newToots))
		rep.Add("crawl.full_toots", float64(fullToots))
		rep.Add("posts.fresh", float64(posted))
		rep.Add("checkpoint.domains", float64(len(ck.HighWater)))
		rep.Add("resume.delta_domains", float64(deltaDomains))
		rep.Add("resume.refetch_domains", float64(refetchDomains))
		rep.Add("merged.instances", float64(len(merged.Instances)))
		rep.Add("merged.users", float64(len(merged.Users)))
		rep.Add("merged.edges", float64(merged.Social.NumEdges()))
		rep.AddSeries("downtime.window_mean", analysis.WindowDowntime(merged, []int{0, checkpointAt}))
		return nil
	}

	sc.Check = func(rep *Report) error {
		if rep.MustMetric("merge.names_equal") != 1 {
			return fmt.Errorf("merged account population differs from the full crawl's")
		}
		if rep.MustMetric("merge.byte_equal") != 1 {
			return fmt.Errorf("merged world is not byte-identical to the full-window crawl")
		}
		dt, ft := rep.MustMetric("crawl.delta_toots"), rep.MustMetric("crawl.full_toots")
		if !(dt < ft) {
			return fmt.Errorf("delta crawl fetched %.0f toots, not fewer than the full crawl's %.0f", dt, ft)
		}
		if got, want := rep.MustMetric("crawl.new_toots"), rep.MustMetric("posts.fresh"); got != want {
			return fmt.Errorf("delta crawl fetched %.0f new toots, want exactly the %.0f posted after the checkpoint", got, want)
		}
		if got := rep.MustMetric("resume.delta_domains"); got < anchorsN {
			return fmt.Errorf("only %.0f domains resumed from a high-water mark, want at least %d", got, anchorsN)
		}
		if rep.MustMetric("merged.users") == 0 || rep.MustMetric("merged.edges") == 0 {
			return fmt.Errorf("merged world is empty")
		}
		return nil
	}
	return sc
}
