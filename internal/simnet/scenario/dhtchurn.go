package scenario

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/replication"
	"repro/internal/simnet"
)

// DHTChurn wakes the dht.Ring as the fediverse's decentralised directory
// and runs it against the centralised-registry baseline under churn — the
// §5.2 argument made live. At campaign start every instance joins the ring
// and publishes presence (its peer list) and per-author replica records;
// the injector's outages are mirrored into ring liveness every slot. A
// newbie instance registers mid-campaign and must surface through DHT
// bootstrap (walking presence records) instead of snowball peering; an AS
// outage storm then degrades the network with one storm pinned over the
// crawl window, and an original instance is killed outright. The report
// compares directory lookup success against a centralised registry hosted
// on a storm-afflicted instance, checks O(log N) routing, and evaluates
// ring-keyspace replica placement (DHT-Rep) against No-Rep and S-Rep on
// the crawled world under the measured down mask.
func DHTChurn(seed uint64) *Scenario {
	if seed == 0 {
		seed = 17
	}
	const (
		startSlot   = 1 * dataset.SlotsPerDay
		slots       = 1 * dataset.SlotsPerDay
		sampleEvery = 12  // directory-vs-registry lookup sample cadence (1h)
		registerAt  = 60  // newbie joins between DHT bootstrap rounds 48, 96
		crawlAt     = 110 // pre-storm crawl: the healthy-world snapshot
		stormAt     = 120 // correlated AS storms start mid-campaign
		killAt      = 180
		anchors     = 3 // existing instances the newbie federates with
		probeStride = 6 // every 6th instance's presence record is sampled
	)

	// Per-run state shared between events, hooks and Collect.
	var (
		dir            *simnet.Directory
		snap           *Snapshot
		groups         [][]int32
		registry       string // the centralised-registry baseline's host
		victim         string
		dhtSuccess     []float64
		centralSuccess []float64
	)

	sc := &Scenario{
		Name:          "dht-churn",
		Title:         "The DHT as decentralised directory vs a centralised registry under churn",
		Paper:         "§5.2 (decentralised global index)",
		Seed:          seed,
		World:         quietWorld(60, 900, 4),
		Options:       baseOptions,
		StartSlot:     startSlot,
		Slots:         slots,
		DiscoverEvery: 48,
	}

	// Discovery bootstraps from the directory, not snowball peering: walk
	// presence records through the ring from the scenario seeds.
	sc.Discoverer = func(ctx context.Context, r *Run) []string {
		if dir == nil {
			return nil
		}
		boot := &crawler.DHTBootstrap{Index: dir}
		return boot.Discover(ctx, r.Seeds())
	}

	// Every slot the directory lives through exactly the churn the injector
	// scripts; once an hour, race it against the centralised registry on a
	// fixed sample of presence records.
	sc.EachSlot = func(ctx context.Context, r *Run, slot int) error {
		if dir == nil {
			return nil
		}
		dir.Sync()
		if slot%sampleEvery != 0 {
			return nil
		}
		ok, total := 0, 0
		for i := 0; i < len(r.World.Instances); i += probeStride {
			total++
			if _, _, err := dir.Resolve(dht.PresenceKey(r.World.Instances[i].Domain)); err == nil {
				ok++
			}
		}
		dhtSuccess = append(dhtSuccess, float64(ok)/float64(total))
		// The baseline is all-or-nothing: a centralised registry answers
		// every lookup while its host is up and none while it is down.
		centralSuccess = append(centralSuccess, b2f(r.online(registry)))
		return nil
	}

	sc.Events = []Event{
		{
			At:   0,
			Name: "directory up: every instance joins the ring and publishes",
			Do: func(ctx context.Context, r *Run) error {
				dhtSuccess, centralSuccess = nil, nil
				snap = nil
				dir = simnet.NewDirectory(r.H.Net, simnet.DirectoryOptions{})
				if err := dir.PublishAllPresence(ctx); err != nil {
					return err
				}
				// Per-author replica records: the §5.2 index entry mapping an
				// author to the instances holding copies — home plus the ring
				// successors of the author's key (DHT-Rep placement).
				for ui := range r.World.Users {
					u := &r.World.Users[ui]
					home := r.World.Instances[u.Instance].Domain
					key := dht.AuthorKey(u.ID)
					holders, err := dir.Ring.Holders(key)
					if err != nil {
						return err
					}
					value := append([]string{home}, holders...)
					if err := dir.Publish(ctx, home, key, value); err != nil {
						return err
					}
				}
				// The comparison baseline: a centralised registry hosted on a
				// member of the largest AS — the one the tail storm takes out.
				groups = topASGroups(r.World, 3)
				if len(groups) < 3 {
					return fmt.Errorf("world has only %d multi-instance ASes, want 3", len(groups))
				}
				registry = r.World.Instances[groups[0][0]].Domain
				inGroup0 := make(map[int32]bool, len(groups[0]))
				for _, id := range groups[0] {
					inGroup0[id] = true
				}
				victim = ""
				for i := len(r.World.Instances) - 1; i >= 0; i-- {
					if !inGroup0[int32(i)] {
						victim = r.World.Instances[i].Domain
						break
					}
				}
				if victim == "" {
					return fmt.Errorf("no instance outside the largest AS to kill")
				}
				return nil
			},
		},
		{
			At:   registerAt,
			Name: "newbie instance joins the directory",
			Do: func(ctx context.Context, r *Run) error {
				anchorActors, err := pickAnchors(r.World, anchors, func(i int) bool {
					return r.online(r.World.Instances[i].Domain)
				})
				if err != nil {
					return err
				}
				domain, err := registerNewbie(ctx, r, 0, simnet.SlotTime(startSlot+registerAt), anchorActors)
				if err != nil {
					return err
				}
				// Join the ring and publish: the newbie's own presence, plus a
				// refresh of the anchors' records — their peer lists now carry
				// the newbie, which is all the next DHT bootstrap walk needs.
				dir.Register(domain)
				if err := dir.PublishPresence(ctx, domain); err != nil {
					return err
				}
				for _, anchor := range anchorActors {
					if err := dir.PublishPresence(ctx, anchor.Domain); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			At:   crawlAt,
			Name: "pre-storm crawl",
			Do: func(ctx context.Context, r *Run) error {
				var err error
				snap, err = r.CrawlNow(ctx)
				return err
			},
		},
		{
			At:   stormAt,
			Name: "correlated AS storms, one pinned over the crawl window",
			Do: func(ctx context.Context, r *Run) error {
				// The tail storm downs the registry's whole AS across the
				// final crawl — the §5.2 case for not depending on one host.
				overlay, _ := stormOverlay(r.World, sc.Seed, groups, startSlot+stormAt, startSlot+slots)
				r.Injector.SetOverlay(overlay)
				return nil
			},
		},
		{
			At:   killAt,
			Name: "kill an original instance",
			Do: func(ctx context.Context, r *Run) error {
				r.Injector.Kill(victim)
				return nil
			},
		},
	}

	sc.Collect = func(r *Run, rep *Report) error {
		ctx := context.Background()

		// Directory vs registry lookup success over the campaign.
		rep.AddSeries("dir.lookup_success.dht", dhtSuccess)
		rep.AddSeries("dir.lookup_success.central", centralSuccess)
		rep.Add("dir.lookup_success.dht_mean", mean(dhtSuccess))
		rep.Add("dir.lookup_success.central_mean", mean(centralSuccess))
		pubs, fails := dir.Stats()
		rep.Add("dir.publishes", float64(pubs))
		rep.Add("dir.publish_failures", float64(fails))

		// O(log N) routing over the final ring.
		route := dir.Ring.RouteStats(64)
		rep.Add("dht.route.keys", float64(route.Keys))
		rep.Add("dht.route.mean_hops", route.MeanHops)
		rep.Add("dht.route.max_hops", float64(route.MaxHops))
		rep.Add("dht.ring.members", float64(dir.Ring.Size()))

		// When did the DHT bootstrap surface the newbie?
		rep.Add("discovery.newbie_slot", float64(newbieSlot(rep)))

		// The dead victim's presence record outlives it: still resolvable
		// from the ring even though the instance itself is gone.
		victimResolvable := 0.0
		if _, _, err := dir.Resolve(dht.PresenceKey(victim)); err == nil {
			victimResolvable = 1
		}
		rep.Add("kill.victim_presence_resolvable", victimResolvable)

		// Discovery under the crawl-window storm: DHT bootstrap only needs a
		// record's index holders up, snowball needs every instance itself up
		// to serve its peer list. Same seeds (live instances outside the
		// storming AS), both at the final slot.
		inGroup0 := make(map[string]bool, len(groups[0]))
		for _, id := range groups[0] {
			inGroup0[r.World.Instances[id].Domain] = true
		}
		seeds := make([]string, 0, anchors)
		for i := range r.World.Instances {
			dom := r.World.Instances[i].Domain
			if r.online(dom) && !inGroup0[dom] && dom != victim {
				seeds = append(seeds, dom)
			}
			if len(seeds) == anchors {
				break
			}
		}
		boot := &crawler.DHTBootstrap{Index: dir}
		dhtFound := boot.Discover(ctx, seeds)
		snow := &crawler.Discoverer{Client: r.H.Client}
		snowFound := snow.Discover(ctx, seeds)
		rep.Add("storm.discovery.dht_found", float64(len(dhtFound)))
		rep.Add("storm.discovery.snowball_found", float64(len(snowFound)))

		// §5.2 replication on the healthy-world snapshot (crawled before the
		// storm) under the down mask the final probe round measured:
		// ring-keyspace placement (DHT-Rep) between the No-Rep and S-Rep
		// extremes.
		down, dead := finalDown(r.Result, len(snap.World.Instances))
		rep.Add("probe.final_dead", float64(dead))
		exp := replication.New(snap.World)
		strategies := []replication.Strategy{
			replication.NoRep{},
			replication.NewDHTRep(snap.World, dir.Ring),
			replication.SubRep{},
		}
		keys := []string{"no_rep", "dht_rep", "s_rep"}
		rows := analysis.ReplicationConnectivity(snap.World, exp, strategies, down)
		for i, row := range rows {
			rep.Add("repl.availability_pct."+keys[i], row.AvailabilityPct)
			rep.Add("repl.survivor_frac."+keys[i], row.SurvivorFrac)
			rep.Add("repl.connected_frac."+keys[i], row.ConnectedFrac)
		}

		// End to end at the final slot: an author's content is reachable iff
		// the index resolves their record AND a listed replica host is up.
		// The centralised baseline fails closed: registry down, nothing
		// resolves.
		registryUp := r.online(registry)
		e2eDHT, e2eCentral := 0, 0
		for ui := range r.World.Users {
			u := &r.World.Users[ui]
			value, _, err := dir.Resolve(dht.AuthorKey(u.ID))
			replicaUp := false
			if err == nil {
				for _, dom := range value {
					if replicaUp = r.online(dom); replicaUp {
						break
					}
				}
			}
			if err == nil && replicaUp {
				e2eDHT++
			}
			if registryUp && replicaUp {
				e2eCentral++
			}
		}
		n := float64(len(r.World.Users))
		rep.Add("e2e.avail_frac.dht", float64(e2eDHT)/n)
		rep.Add("e2e.avail_frac.central", float64(e2eCentral)/n)
		return nil
	}

	sc.Check = func(rep *Report) error {
		// The decentralised directory must beat the centralised registry,
		// which the tail storm takes down across the crawl window.
		d, c := rep.MustMetric("dir.lookup_success.dht_mean"), rep.MustMetric("dir.lookup_success.central_mean")
		if d <= c {
			return fmt.Errorf("DHT lookup success %.4f not above the centralised registry's %.4f", d, c)
		}
		// O(log N) routing: every sampled lookup resolves, with hops within
		// the Chord bound for the final ring size.
		if got := rep.MustMetric("dht.route.keys"); got != 64 {
			return fmt.Errorf("only %.0f of 64 route probes resolved", got)
		}
		bound := 2*math.Log2(rep.MustMetric("dht.ring.members")) + 2
		if got := rep.MustMetric("dht.route.mean_hops"); got <= 0 || got > bound {
			return fmt.Errorf("mean hops %.2f outside (0, %.2f]: not O(log N) routing", got, bound)
		}
		// The newbie must surface on the first DHT bootstrap round after it
		// publishes: registration at slot 60 → discovery at 96.
		if got := rep.MustMetric("discovery.newbie_slot"); got != 96 {
			return fmt.Errorf("newbie discovered at slot %.0f, want the next bootstrap round at 96", got)
		}
		// The killed instance stays discoverable through the ring.
		if got := rep.MustMetric("kill.victim_presence_resolvable"); got != 1 {
			return fmt.Errorf("killed instance's presence record lost from the ring")
		}
		// Under the crawl-window storm the DHT walk out-discovers snowball.
		dhtF, snowF := rep.MustMetric("storm.discovery.dht_found"), rep.MustMetric("storm.discovery.snowball_found")
		if dhtF <= snowF {
			return fmt.Errorf("DHT bootstrap found %.0f domains, snowball %.0f: no storm advantage", dhtF, snowF)
		}
		// Ring-keyspace placement recovers availability over No-Rep.
		no, dr := rep.MustMetric("repl.availability_pct.no_rep"), rep.MustMetric("repl.availability_pct.dht_rep")
		if dr <= no {
			return fmt.Errorf("DHT-Rep availability %.2f%% not above No-Rep %.2f%%", dr, no)
		}
		// End to end, decentralised index + replicas beat the dead registry.
		ed, ec := rep.MustMetric("e2e.avail_frac.dht"), rep.MustMetric("e2e.avail_frac.central")
		if ed <= ec {
			return fmt.Errorf("end-to-end availability %.4f (DHT) not above %.4f (central)", ed, ec)
		}
		if got := rep.MustMetric("dir.publishes"); got <= 0 {
			return fmt.Errorf("directory published nothing")
		}
		return nil
	}
	return sc
}
