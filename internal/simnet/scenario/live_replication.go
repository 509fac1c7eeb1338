package scenario

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/replication"
)

// LiveReplication reruns the §5.2 replication experiments on a live network
// instead of a static snapshot: the campaign crawls the fediverse while it
// is still healthy, then three kill waves take out whole ASes — the
// Table 1 correlated-failure shape, one of the largest hosting ASes per
// wave — through the injector, and the final probe round measures who
// actually died. Each §5.2 strategy — no replication, random replication,
// subscription-based replication — is then evaluated on the crawled (not
// generated) world under the measured down mask, reporting toot
// availability and what remains connected of the recovered social graph.
func LiveReplication(seed uint64) *Scenario {
	if seed == 0 {
		seed = 31
	}
	const (
		startSlot = 1 * dataset.SlotsPerDay
		slots     = 1 * dataset.SlotsPerDay
		crawlAt   = 140 // pre-storm crawl: the paper's snapshot, taken live
	)
	waveSlots := []int{150, 170, 190}

	// Per-run state shared between events and Collect.
	var snap *Snapshot
	var waves [][]int32

	sc := &Scenario{
		Name:      "live-replication",
		Title:     "§5.2 replication strategies against mid-campaign instance deaths",
		Paper:     "§5.2 (Fig 15, Fig 16)",
		Seed:      seed,
		World:     quietWorld(100, 2400, 6),
		Options:   baseOptions,
		StartSlot: startSlot,
		Slots:     slots,
	}

	events := []Event{{
		At:   crawlAt,
		Name: "pre-storm crawl",
		Do: func(ctx context.Context, r *Run) error {
			var err error
			snap, err = r.CrawlNow(ctx)
			if err != nil {
				return err
			}
			waves = topASGroups(r.World, len(waveSlots))
			if len(waves) < len(waveSlots) {
				return fmt.Errorf("world has only %d multi-instance ASes, want %d kill waves",
					len(waves), len(waveSlots))
			}
			return nil
		},
	}}
	for wi, at := range waveSlots {
		wi := wi
		events = append(events, Event{
			At:   at,
			Name: fmt.Sprintf("kill wave %d (AS-wide death)", wi+1),
			Do: func(ctx context.Context, r *Run) error {
				for _, id := range waves[wi] {
					r.Injector.Kill(r.World.Instances[id].Domain)
				}
				return nil
			},
		})
	}
	sc.Events = events

	sc.Collect = func(r *Run, rep *Report) error {
		// The measured down mask: who the final probe round actually saw
		// dead (kill waves plus whatever background outages hit).
		down, dead := finalDown(r.Result, len(snap.World.Instances))
		killed := 0
		for _, wave := range waves {
			killed += len(wave)
		}
		rep.Add("kill.killed_instances", float64(killed))
		rep.Add("kill.dead_instances", float64(dead))
		rep.Add("snapshot.users", float64(len(snap.World.Users)))
		rep.Add("snapshot.edges", float64(snap.World.Social.NumEdges()))

		strategies := []replication.Strategy{
			replication.NoRep{},
			replication.RandRep{N: 1, Seed: sc.Seed},
			replication.RandRep{N: 3, Seed: sc.Seed},
			replication.SubRep{},
		}
		keys := []string{"no_rep", "r_rep_1", "r_rep_3", "s_rep"}
		exp := replication.New(snap.World)
		rows := analysis.ReplicationConnectivity(snap.World, exp, strategies, down)
		for i, row := range rows {
			rep.Add("repl.availability_pct."+keys[i], row.AvailabilityPct)
			rep.Add("repl.survivor_frac."+keys[i], row.SurvivorFrac)
			rep.Add("repl.connected_frac."+keys[i], row.ConnectedFrac)
			rep.Add("repl.survivor_lcc_frac."+keys[i], row.SurvivorLCCFrac)
		}

		// Fig 15/16-style live sweeps: availability on the crawled world as
		// the kill waves land cumulatively.
		for i, s := range strategies {
			rep.AddSeries("fig15.availability."+keys[i], exp.Sweep(s, waves))
		}
		return nil
	}

	sc.Check = func(rep *Report) error {
		killed, dead := rep.MustMetric("kill.killed_instances"), rep.MustMetric("kill.dead_instances")
		if killed == 0 || dead < killed {
			return fmt.Errorf("final round saw %.0f dead instances, want at least the %.0f killed", dead, killed)
		}
		// The §5.2 ordering on the recovered network: no replication loses
		// the most connectivity, random replication recovers some, and
		// subscription-based replication — replicas already sit where the
		// followers are — keeps the most of the graph connected.
		no := rep.MustMetric("repl.connected_frac.no_rep")
		r1 := rep.MustMetric("repl.connected_frac.r_rep_1")
		sub := rep.MustMetric("repl.connected_frac.s_rep")
		if !(no < r1 && r1 < sub) {
			return fmt.Errorf("connectivity ordering violated: No-Rep %.4f, R-Rep(1) %.4f, S-Rep %.4f", no, r1, sub)
		}
		if a, b := rep.MustMetric("repl.availability_pct.no_rep"), rep.MustMetric("repl.availability_pct.s_rep"); a >= b {
			return fmt.Errorf("S-Rep availability %.2f%% not above No-Rep %.2f%%", b, a)
		}
		return nil
	}
	return sc
}
