package analysis

import (
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/replication"
)

// This file covers §5.2: Fig 15 (toot availability without and with
// subscription replication, under instance and AS removal with four
// rankings) and Fig 16 (random replication).

// AvailabilitySeries is one curve of Fig 15/16: toot availability (%) after
// removing 0..N batches.
type AvailabilitySeries struct {
	Strategy string
	Ranking  string
	Values   []float64
}

// InstanceRankings returns the four §5.2 instance orderings: by users,
// toots and federation connections (Fig 15's right panels).
func InstanceRankings(w *dataset.World) map[string][]int32 {
	conn := make([]float64, len(w.Instances))
	for i := range w.Instances {
		conn[i] = float64(w.Federation.Degree(int32(i)))
	}
	return map[string][]int32{
		"by Users Hosted": graph.RankDescending(w.InstanceUserWeights()),
		"by Toots Posted": graph.RankDescending(w.InstanceTootWeights()),
		"by Connections":  graph.RankDescending(conn),
	}
}

// ASRankings returns the Fig 15 AS orderings (by instances, users, toots
// hosted), as ordered batches of instance ids.
func ASRankings(w *dataset.World, topN int) map[string][][]int32 {
	users := w.InstanceUserWeights()
	toots := w.InstanceTootWeights()
	sum := func(scores []float64) func(ids []int32) float64 {
		return func(ids []int32) float64 {
			var s float64
			for _, id := range ids {
				s += scores[id]
			}
			return s
		}
	}
	byInst, _ := ASBatches(w, func(ids []int32) float64 { return float64(len(ids)) }, topN)
	byUsers, _ := ASBatches(w, sum(users), topN)
	byToots, _ := ASBatches(w, sum(toots), topN)
	return map[string][][]int32{
		"by Instances Hosted": byInst,
		"by Users Hosted":     byUsers,
		"by Toots Posted":     byToots,
	}
}

// ReplicationResult is Fig 15.
type ReplicationResult struct {
	// InstanceSweeps[strategy] are availability series under top-N instance
	// removal, one per ranking.
	InstanceSweeps []AvailabilitySeries
	// ASSweeps likewise for top-N AS removal.
	ASSweeps []AvailabilitySeries
}

// Fig15Replication computes Fig 15 with No-Rep and S-Rep, removing up to
// topInst instances and topAS ASes per ranking. exp is the world's
// placement state (replication.New(w)), shared by the §5.2 experiments.
func Fig15Replication(w *dataset.World, exp *replication.Experiment, topInst, topAS int) ReplicationResult {
	strategies := []replication.Strategy{replication.NoRep{}, replication.SubRep{}}
	var r ReplicationResult
	for ranking, order := range InstanceRankings(w) {
		batches := graph.SingletonBatches(order, topInst)
		for _, s := range strategies {
			r.InstanceSweeps = append(r.InstanceSweeps, AvailabilitySeries{
				Strategy: s.Name(),
				Ranking:  ranking,
				Values:   exp.Sweep(s, batches),
			})
		}
	}
	for ranking, batches := range ASRankings(w, topAS) {
		for _, s := range strategies {
			r.ASSweeps = append(r.ASSweeps, AvailabilitySeries{
				Strategy: s.Name(),
				Ranking:  ranking,
				Values:   exp.Sweep(s, batches),
			})
		}
	}
	sortSeries(r.InstanceSweeps)
	sortSeries(r.ASSweeps)
	return r
}

func sortSeries(ss []AvailabilitySeries) {
	// Deterministic report order: ranking, then strategy.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0; j-- {
			a, b := &ss[j-1], &ss[j]
			if a.Ranking < b.Ranking || (a.Ranking == b.Ranking && a.Strategy <= b.Strategy) {
				break
			}
			*a, *b = *b, *a
		}
	}
}

// RandomReplicationResult is Fig 16.
type RandomReplicationResult struct {
	// InstanceSweeps: availability when removing top-N instances by toots,
	// for No-Rep, S-Rep and R-Rep(n) with the paper's n values.
	InstanceSweeps []AvailabilitySeries
	// ASSweeps: same under AS removal (ranked by toots).
	ASSweeps []AvailabilitySeries
	// NoReplicaTootPct / Over10ReplicaTootPct reproduce the §5.2 replica
	// skew (9.7% of toots with no replica; 23% with >10).
	NoReplicaTootPct     float64
	Over10ReplicaTootPct float64
}

// Fig16RandomReplication computes Fig 16 on the world's placement state
// exp. ns lists the replication factors (the paper uses 1, 2, 3, 4, 7, 9).
func Fig16RandomReplication(w *dataset.World, exp *replication.Experiment, topInst, topAS int, ns []int) RandomReplicationResult {
	instBatches := graph.SingletonBatches(graph.TopK(w.InstanceTootWeights(), topInst), topInst)
	asBatches := ASRankings(w, topAS)["by Toots Posted"]

	strategies := []replication.Strategy{replication.NoRep{}, replication.SubRep{}}
	for _, n := range ns {
		strategies = append(strategies, replication.RandRep{N: n, Exact: true})
	}
	var r RandomReplicationResult
	for _, s := range strategies {
		r.InstanceSweeps = append(r.InstanceSweeps, AvailabilitySeries{
			Strategy: s.Name(),
			Ranking:  "by Toots Posted",
			Values:   exp.Sweep(s, instBatches),
		})
		r.ASSweeps = append(r.ASSweeps, AvailabilitySeries{
			Strategy: s.Name(),
			Ranking:  "by Toots Posted",
			Values:   exp.Sweep(s, asBatches),
		})
	}
	none, many := exp.ReplicaStats()
	r.NoReplicaTootPct = pct(none)
	r.Over10ReplicaTootPct = pct(many)
	return r
}
