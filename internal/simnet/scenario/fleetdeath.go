package scenario

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/simnet"
)

// FleetWorkerDeath replays the toot crawl under churn: the §3 toot crawl
// runs on four workers, two are killed mid-domain by the script, the two
// survivors wait out the TTL on the virtual clock and re-crawl the
// discarded partial harvests in full — and the recovered
// world must still be byte-identical to a single-worker crawl of the same
// network. The differential oracle runs inside Collect,
// so the scenario fails loudly if worker death ever shows through in the
// output bytes.
func FleetWorkerDeath(seed uint64) *Scenario {
	if seed == 0 {
		seed = 31
	}
	const (
		startSlot = 1 * dataset.SlotsPerDay
		slots     = dataset.SlotsPerDay / 2
		workers   = 4
		outageAt  = 60
	)
	kill := []crawler.Kill{{Domain: 2}, {Domain: 9}}

	var victim string

	sc := &Scenario{
		Name:         "fleet-worker-death",
		Title:        "Crawler fleet losing workers mid-domain, leases re-assigned",
		Paper:        "§3 (crawl methodology, scaled out)",
		Seed:         seed,
		World:        quietWorld(14, 220, 5),
		Options:      baseOptions,
		StartSlot:    startSlot,
		Slots:        slots,
		CrawlWorkers: workers,
		Kill:         kill,
	}

	// An instance dies mid-campaign too: the crawl must get through a
	// population that has real outages on top of its own worker churn.
	sc.Events = []Event{{
		At:   outageAt,
		Name: "kill an instance for good",
		Do: func(ctx context.Context, r *Run) error {
			victim = r.World.Instances[len(r.World.Instances)-1].Domain
			r.Injector.Kill(victim)
			return nil
		},
	}}

	sc.Collect = func(r *Run, rep *Report) error {
		res := r.Result
		st := res.CrawlStats
		rep.Add("fleet.workers", float64(st.Workers))
		rep.Add("fleet.domains", float64(st.Domains))
		rep.Add("fleet.leases", float64(st.Leases))
		rep.Add("fleet.dead", float64(st.Dead))
		rep.Add("fleet.abandoned", float64(st.Abandoned))
		rep.Add("fleet.reassigned", float64(st.Reassigned))

		// The differential oracle: a single-worker crawl of the same
		// quiescent network, rebuilt and serialised, must match the killed
		// crawl's harvest byte for byte.
		oracle := *res
		solo := simnet.CampaignConfig{CrawlWorkers: 1}
		if err := r.H.CrawlPhase(context.Background(), solo, &oracle); err != nil {
			return err
		}
		killedWorld, killedNames := simnet.Rebuild(res)
		soloWorld, soloNames := simnet.Rebuild(&oracle)
		identical, err := sameBytes(killedWorld, soloWorld)
		if err != nil {
			return err
		}
		rep.Add("equivalence.byte_identical", b2f(identical && slices.Equal(killedNames, soloNames)))

		// The victim's flatline and the harvest volume, as sanity anchors.
		idx := -1
		for i, d := range res.Domains {
			if d == victim {
				idx = i
			}
		}
		rep.Add("outage.victim_down_frac", res.Traces.Traces[idx].DownFraction(outageAt, slots))
		toots := 0
		for i := range res.Crawls {
			toots += res.Crawls[i].Toots
		}
		rep.Add("crawl.toots", float64(toots))
		return nil
	}

	sc.Check = func(rep *Report) error {
		if got := rep.MustMetric("equivalence.byte_identical"); got != 1 {
			return fmt.Errorf("harvest with worker deaths is not byte-identical to the single-worker crawl")
		}
		if got := rep.MustMetric("fleet.dead"); got != float64(len(kill)) {
			return fmt.Errorf("%.0f workers died, want the %d scripted deaths", got, len(kill))
		}
		if got := rep.MustMetric("fleet.abandoned"); got != float64(len(kill)) {
			return fmt.Errorf("%.0f leases abandoned, want %d", got, len(kill))
		}
		if got := rep.MustMetric("fleet.reassigned"); got != float64(len(kill)) {
			return fmt.Errorf("%.0f leases re-assigned, want %d", got, len(kill))
		}
		leases := rep.MustMetric("fleet.leases")
		if want := rep.MustMetric("fleet.domains") + rep.MustMetric("fleet.reassigned"); leases != want {
			return fmt.Errorf("%.0f leases issued, want %.0f (every domain once plus re-issues)", leases, want)
		}
		if got := rep.MustMetric("outage.victim_down_frac"); got != 1 {
			return fmt.Errorf("killed instance seen up after its death (down frac %.4f)", got)
		}
		if got := rep.MustMetric("crawl.toots"); got == 0 {
			return fmt.Errorf("crawl harvested nothing")
		}
		return nil
	}
	return sc
}
