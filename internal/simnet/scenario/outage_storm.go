package scenario

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// OutageStorm replays the paper's correlated-failure story (§4.4, Fig 7 and
// Fig 10, Table 1) as a live experiment: mid-campaign, a generated set of
// AS-wide outage storms is overlaid onto the running network through the
// injector, with one storm pinned over the final crawl window. The scenario
// measures what the prober observes of the storms (coverage), and how the
// storm biases the availability analyses and dataset coverage recovered by
// the campaign against the storm-free expectation.
func OutageStorm(seed uint64) *Scenario { return outageStorm(seed, 2) }

// outageStorm builds the scenario over a probing window of days days — the
// -short CI matrix runs the 2-day default, the full matrix also replays a
// wider window (TestScenarioFullWindowOutageStorm).
func outageStorm(seed uint64, days int) *Scenario {
	if seed == 0 {
		seed = 11
	}
	const startSlot = 1 * dataset.SlotsPerDay
	var (
		slots   = days * dataset.SlotsPerDay
		stormAt = slots / 2 // event slot: storm replay begins mid-campaign
	)

	// Per-run state shared between the storm event and Collect.
	var storms []sim.Storm

	sc := &Scenario{
		Name:      "outage-storm",
		Title:     "Correlated AS-wide outage storms replayed mid-campaign",
		Paper:     "§4.4 (Fig 7, Fig 10, Table 1)",
		Seed:      seed,
		World:     quietWorld(60, 900, days+2),
		Options:   baseOptions,
		StartSlot: startSlot,
		Slots:     slots,
	}

	sc.Events = []Event{{
		At:   stormAt,
		Name: "replay correlated AS outage storms",
		Do: func(ctx context.Context, r *Run) error {
			groups := topASGroups(r.World, 3)
			if len(groups) == 0 {
				return fmt.Errorf("world has no multi-instance AS to storm")
			}
			var overlay *sim.TraceSet
			overlay, storms = stormOverlay(r.World, sc.Seed, groups, startSlot+stormAt, startSlot+slots)
			r.Injector.SetOverlay(overlay)
			return nil
		},
	}}

	sc.Collect = func(r *Run, rep *Report) error {
		res := r.Result
		// Probe coverage: how much downtime the prober saw before and
		// during the storm window.
		rep.Add("probe.down_frac.prestorm", meanDownFrac(res.Traces, 0, stormAt))
		rep.Add("probe.down_frac.storm", meanDownFrac(res.Traces, stormAt, slots))
		// What the storm window would have shown with no storm: the ground
		// truth base traces over the same absolute slots.
		var base float64
		for i := range r.World.Instances {
			base += r.World.Traces.Traces[i].DownFraction(startSlot+stormAt, startSlot+slots)
		}
		rep.Add("probe.down_frac.storm_base", base/float64(len(r.World.Instances)))

		// Storm observation: every injected member-slot inside the probing
		// window must have been recorded as down — the injector→server→
		// prober loop loses nothing.
		injected, observed := 0, 0
		for _, st := range storms {
			lo, hi := st.Start, st.End
			if lo < startSlot {
				lo = startSlot
			}
			if hi > startSlot+slots {
				hi = startSlot + slots
			}
			for _, id := range st.Members {
				for s := lo; s < hi; s++ {
					injected++
					if res.Traces.Traces[id].IsDown(s - startSlot) {
						observed++
					}
				}
			}
		}
		rep.Add("storm.count", float64(len(storms)))
		rep.Add("storm.member_slots", float64(injected))
		if injected > 0 {
			rep.Add("storm.observed_frac", float64(observed)/float64(injected))
		}

		// Probe-loss bias: the §4.4 analyses and dataset coverage of the
		// recovered world against the storm-free expectation.
		recovered, _ := simnet.Rebuild(res)
		expected, _ := simnet.ExpectedWorld(r.World, simnet.ExpectedConfig{
			StartSlot:       startSlot,
			Slots:           slots,
			MaxTootsPerUser: tootCap,
		})
		bias := analysis.ProbeLossBias(expected, recovered)
		rep.Add("bias.mean_downtime.expected_pct", bias.MeanDowntimeExpectedPct)
		rep.Add("bias.mean_downtime.recovered_pct", bias.MeanDowntimeRecoveredPct)
		rep.Add("bias.over50.expected_pct", bias.Over50ExpectedPct)
		rep.Add("bias.over50.recovered_pct", bias.Over50RecoveredPct)
		rep.Add("bias.day_outage.expected_pct", bias.DayOutageExpectedPct)
		rep.Add("bias.day_outage.recovered_pct", bias.DayOutageRecoveredPct)
		rep.Add("coverage.users", bias.UserCoverage)
		rep.Add("coverage.toots", bias.TootCoverage)
		rep.Add("coverage.edges", bias.EdgeCoverage)

		// Fig 7-style curves from the live run: per-instance downtime
		// fractions, sorted — the recovered CDF against the expectation.
		rep.AddSeries("fig7.downtime.expected", downtimeCurve(expected.Traces))
		rep.AddSeries("fig7.downtime.recovered", downtimeCurve(recovered.Traces))
		return nil
	}

	sc.Check = func(rep *Report) error {
		if got := rep.MustMetric("storm.observed_frac"); got != 1 {
			return fmt.Errorf("prober observed only %.4f of injected storm member-slots", got)
		}
		base, in := rep.MustMetric("probe.down_frac.storm_base"), rep.MustMetric("probe.down_frac.storm")
		if in <= base {
			return fmt.Errorf("storm window down fraction %.4f not above its storm-free baseline %.4f", in, base)
		}
		if e, g := rep.MustMetric("bias.mean_downtime.expected_pct"), rep.MustMetric("bias.mean_downtime.recovered_pct"); g <= e {
			return fmt.Errorf("recovered mean downtime %.3f%% not biased above clean %.3f%%", g, e)
		}
		for _, m := range []string{"coverage.users", "coverage.toots", "coverage.edges"} {
			c := rep.MustMetric(m)
			if c <= 0 || c >= 1 {
				return fmt.Errorf("%s = %.4f, want in (0,1): the crawl-window storm must cost coverage", m, c)
			}
		}
		return nil
	}
	return sc
}

// meanDownFrac averages the per-instance down fraction of the recovered
// traces over the campaign-relative slot window [from, to).
func meanDownFrac(ts *sim.TraceSet, from, to int) float64 {
	if ts.Len() == 0 || to <= from {
		return 0
	}
	var sum float64
	for i := 0; i < ts.Len(); i++ {
		sum += ts.Traces[i].DownFraction(from, to)
	}
	return sum / float64(ts.Len())
}

// downtimeCurve is the Fig 7 x-axis: per-instance downtime fractions over
// the whole recovered window, sorted ascending.
func downtimeCurve(ts *sim.TraceSet) []float64 {
	out := make([]float64, ts.Len())
	for i := range out {
		out[i] = ts.Traces[i].DownFraction(0, ts.Slots())
	}
	sort.Float64s(out)
	return out
}
