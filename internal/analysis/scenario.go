package analysis

import (
	"repro/internal/dataset"
	"repro/internal/replication"
)

// This file feeds the live scenario engine (internal/simnet/scenario): it
// compares the §4.4 availability analyses computed from a world recovered
// by a disturbed campaign against the clean expectation (probe-loss bias,
// outage-storm scenario), and evaluates the §5.2 replication strategies on
// the graph a live campaign actually recovered (live-replication scenario).

// ProbeLossBiasResult quantifies how a mid-campaign disturbance (an outage
// storm) biases what the measurement pipeline recovers: the Fig 7 / Fig 10
// headline numbers on both worlds, plus coverage ratios of the crawled
// datasets.
type ProbeLossBiasResult struct {
	// Fig 7: mean per-instance downtime and the share of instances with
	// more than 50% downtime.
	MeanDowntimeExpectedPct  float64
	MeanDowntimeRecoveredPct float64
	Over50ExpectedPct        float64
	Over50RecoveredPct       float64
	// Fig 10: share of instances with a continuous outage of at least one
	// day.
	DayOutageExpectedPct  float64
	DayOutageRecoveredPct float64
	// Coverage of the crawled datasets: accounts, toots (user-level sums)
	// and follower edges the disturbed campaign recovered, as fractions of
	// the clean expectation (1 = nothing lost, 0 = everything lost).
	UserCoverage float64
	TootCoverage float64
	EdgeCoverage float64
}

// ProbeLossBias computes Fig 7 and Fig 10 on the clean expected world and
// on the world a disturbed campaign recovered, and reports the deltas and
// dataset coverage. Both worlds must carry traces over the same window
// (simnet.ExpectedWorld and simnet.Rebuild both do).
func ProbeLossBias(expected, recovered *dataset.World) ProbeLossBiasResult {
	fig7e, fig7r := Fig7Downtime(expected), Fig7Downtime(recovered)
	fig10e, fig10r := Fig10OutageDurations(expected), Fig10OutageDurations(recovered)
	r := ProbeLossBiasResult{
		MeanDowntimeExpectedPct:  fig7e.MeanDowntimePct,
		MeanDowntimeRecoveredPct: fig7r.MeanDowntimePct,
		Over50ExpectedPct:        fig7e.Over50Pct,
		Over50RecoveredPct:       fig7r.Over50Pct,
		DayOutageExpectedPct:     fig10e.InstancesWithDayOutagePct,
		DayOutageRecoveredPct:    fig10r.InstancesWithDayOutagePct,
	}
	r.UserCoverage = ratio(float64(len(recovered.Users)), float64(len(expected.Users)))
	var tootsE, tootsR float64
	for i := range expected.Users {
		tootsE += float64(expected.Users[i].Toots)
	}
	for i := range recovered.Users {
		tootsR += float64(recovered.Users[i].Toots)
	}
	r.TootCoverage = ratio(tootsR, tootsE)
	r.EdgeCoverage = ratio(float64(recovered.Social.NumEdges()), float64(expected.Social.NumEdges()))
	return r
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ConnectivityRow is one strategy's outcome in a live replication
// experiment: the §5.2 toot-availability number plus what the strategy
// preserves of the social graph when the masked instances die.
type ConnectivityRow struct {
	// AvailabilityPct is the classic Fig 15/16 measure: % of toot mass
	// still reachable.
	AvailabilityPct float64
	// SurvivorFrac is the fraction of users with any reachable copy of
	// their content.
	SurvivorFrac float64
	// ConnectedFrac is the size of the largest weakly connected component
	// of the surviving social graph as a fraction of ALL users — the
	// recovered-graph connectivity measure (an edge survives iff both
	// endpoints do).
	ConnectedFrac float64
	// SurvivorLCCFrac is the same component as a fraction of the survivors
	// only: how fragmented the surviving population is among itself.
	SurvivorLCCFrac float64
}

// ReplicationConnectivity evaluates each strategy on world w with the given
// instance down mask and reports availability and recovered-graph
// connectivity, one row per strategy in input order. exp must be the
// world's precomputed placement state (replication.New(w)) — passed in so
// callers sharing it for other measurements build it once.
func ReplicationConnectivity(w *dataset.World, exp *replication.Experiment, strategies []replication.Strategy, down []bool) []ConnectivityRow {
	rows := make([]ConnectivityRow, 0, len(strategies))
	for _, s := range strategies {
		alive := exp.Survivors(s, down)
		surv := 0
		for _, a := range alive {
			if a {
				surv++
			}
		}
		wcc := w.Social.WeaklyConnected(alive)
		row := ConnectivityRow{
			AvailabilityPct: exp.Availability(s, down),
			SurvivorFrac:    ratio(float64(surv), float64(len(alive))),
			ConnectedFrac:   ratio(float64(wcc.LargestSize), float64(len(w.Users))),
			SurvivorLCCFrac: wcc.LCCFraction(),
		}
		rows = append(rows, row)
	}
	return rows
}
