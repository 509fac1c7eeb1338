package analysis

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/replication"
	"repro/internal/sim"
)

// connWorld: a 4-user chain 0-1-2-3 spread over 3 instances.
//
//	instance 0: users 0, 1   instance 1: user 2   instance 2: user 3
//	follows: 1→0 (local), 2→1, 3→2
func connWorld() *dataset.World {
	g := graph.FromRows([][]int32{nil, {0}, {1}, {2}})
	return &dataset.World{
		Days: 1,
		Instances: []dataset.Instance{
			{ID: 0, Users: 2, Toots: 20, GoneDay: -1},
			{ID: 1, Users: 1, Toots: 10, GoneDay: -1},
			{ID: 2, Users: 1, Toots: 10, GoneDay: -1},
		},
		Users: []dataset.User{
			{ID: 0, Instance: 0, Toots: 10},
			{ID: 1, Instance: 0, Toots: 10},
			{ID: 2, Instance: 1, Toots: 10},
			{ID: 3, Instance: 2, Toots: 10},
		},
		Social: g,
	}
}

func TestReplicationConnectivity(t *testing.T) {
	w := connWorld()
	down := []bool{true, false, false} // instance 0 dies: users 0 and 1 displaced
	rows := ReplicationConnectivity(w, replication.New(w),
		[]replication.Strategy{replication.NoRep{}, replication.SubRep{}}, down)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	no, sub := rows[0], rows[1] // input order; the two rows' values tell them apart
	// No-Rep: users 2 and 3 survive; the surviving graph is the edge 3→2.
	if no.SurvivorFrac != 0.5 {
		t.Fatalf("No-Rep survivor frac = %g, want 0.5", no.SurvivorFrac)
	}
	if no.ConnectedFrac != 0.5 || no.SurvivorLCCFrac != 1 {
		t.Fatalf("No-Rep connectivity = %g / %g, want 0.5 / 1", no.ConnectedFrac, no.SurvivorLCCFrac)
	}
	// S-Rep: user 1's follower (user 2) lives on instance 1, so user 1
	// survives via its replica; user 0's only follower is local → dies.
	if sub.SurvivorFrac != 0.75 {
		t.Fatalf("S-Rep survivor frac = %g, want 0.75", sub.SurvivorFrac)
	}
	// Surviving graph: 1-2-3 chain → one component of 3 users out of 4.
	if sub.ConnectedFrac != 0.75 || sub.SurvivorLCCFrac != 1 {
		t.Fatalf("S-Rep connectivity = %g / %g, want 0.75 / 1", sub.ConnectedFrac, sub.SurvivorLCCFrac)
	}
	if !(sub.AvailabilityPct > no.AvailabilityPct) {
		t.Fatalf("S-Rep availability %g not above No-Rep %g", sub.AvailabilityPct, no.AvailabilityPct)
	}
}

func TestProbeLossBiasCoverage(t *testing.T) {
	mk := func(downSlots int, users int) *dataset.World {
		w := connWorld()
		w.Users = w.Users[:users]
		g := graph.NewBuilder(users)
		for _, e := range [][2]int32{{1, 0}, {2, 1}, {3, 2}} {
			if int(e[0]) < users && int(e[1]) < users {
				g.AddEdge(e[0], e[1])
			}
		}
		w.Social = g.Freeze()
		ts := sim.NewTraceSet(len(w.Instances), 1, dataset.SlotsPerDay)
		ts.Traces[0].SetDownRange(0, downSlots)
		w.Traces = ts
		return w
	}
	expected := mk(0, 4)
	recovered := mk(dataset.SlotsPerDay, 3) // a storm took instance 0 down all day; one user lost
	r := ProbeLossBias(expected, recovered)
	if !(r.MeanDowntimeRecoveredPct > r.MeanDowntimeExpectedPct) {
		t.Fatalf("recovered mean downtime %g not above expected %g",
			r.MeanDowntimeRecoveredPct, r.MeanDowntimeExpectedPct)
	}
	if !(r.DayOutageRecoveredPct > r.DayOutageExpectedPct) {
		t.Fatal("day-outage share did not increase under the storm")
	}
	if r.UserCoverage != 0.75 {
		t.Fatalf("user coverage = %g, want 0.75", r.UserCoverage)
	}
	if r.TootCoverage != 0.75 {
		t.Fatalf("toot coverage = %g, want 0.75", r.TootCoverage)
	}
	if r.EdgeCoverage != 2.0/3.0 {
		t.Fatalf("edge coverage = %g, want 2/3", r.EdgeCoverage)
	}
}
