package analysis

import (
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stats"
)

// This file covers §5.1 and the federation side of §4: Fig 6 (country
// flows), Fig 11 (degree distributions), Fig 12 (user removal), Fig 13
// (instance and AS removal), Fig 14 (home vs remote toots) and Table 2.

// CountryFlow is one Sankey band of Fig 6: the share of federated
// subscription links from instances in From to instances in To.
type CountryFlow struct {
	From     string
	To       string
	LinksPct float64 // of all links originating in From
}

// CountryFlowResult is Fig 6.
type CountryFlowResult struct {
	Flows           []CountryFlow // top-k source countries × destinations
	SameCountryPct  float64       // share of all federated links staying in-country (paper: 32%)
	Top5CountryLink float64       // share of links touching the top-5 countries (paper: 93.66%)
}

// Fig6CountryFlows computes Fig 6 over the federation graph, using the top
// k source countries by outgoing links.
func Fig6CountryFlows(w *dataset.World, k int) CountryFlowResult {
	country := make([]string, len(w.Instances))
	for i := range w.Instances {
		country[i] = w.Instances[i].Country
	}
	outLinks := make(map[string]float64)
	pair := make(map[[2]string]float64)
	var total, same float64
	for v := 0; v < w.Federation.NumNodes(); v++ {
		cFrom := country[v]
		for _, u := range w.Federation.Out(int32(v)) {
			cTo := country[u]
			total++
			outLinks[cFrom]++
			pair[[2]string{cFrom, cTo}]++
			if cFrom == cTo {
				same++
			}
		}
	}
	// Rank source countries.
	type cc struct {
		name string
		n    float64
	}
	var srcs []cc
	for name, n := range outLinks {
		srcs = append(srcs, cc{name, n})
	}
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].n != srcs[j].n {
			return srcs[i].n > srcs[j].n
		}
		return srcs[i].name < srcs[j].name
	})
	if len(srcs) > k {
		srcs = srcs[:k]
	}
	var r CountryFlowResult
	topSet := make(map[string]bool, k)
	for _, s := range srcs {
		topSet[s.name] = true
	}
	var touching float64
	for p, n := range pair {
		if topSet[p[0]] || topSet[p[1]] {
			touching += n
		}
	}
	for _, s := range srcs {
		type dst struct {
			name string
			n    float64
		}
		var dsts []dst
		for p, n := range pair {
			if p[0] == s.name {
				dsts = append(dsts, dst{p[1], n})
			}
		}
		sort.Slice(dsts, func(i, j int) bool {
			if dsts[i].n != dsts[j].n {
				return dsts[i].n > dsts[j].n
			}
			return dsts[i].name < dsts[j].name
		})
		for _, d := range dsts {
			r.Flows = append(r.Flows, CountryFlow{
				From:     s.name,
				To:       d.name,
				LinksPct: pct(d.n / s.n),
			})
		}
	}
	if total > 0 {
		r.SameCountryPct = pct(same / total)
		r.Top5CountryLink = pct(touching / total)
	}
	return r
}

// DegreeCDFs is Fig 11: out-degree distributions of the Mastodon social
// graph, the Mastodon federation graph, and the Twitter baseline.
type DegreeCDFs struct {
	Social     *stats.ECDF
	Federation *stats.ECDF
	Twitter    *stats.ECDF
}

// Fig11DegreeCDF computes Fig 11.
func Fig11DegreeCDF(w *dataset.World, twitterGraph *graph.CSR) DegreeCDFs {
	return DegreeCDFs{
		Social:     stats.NewECDF(w.Social.OutDegrees()),
		Federation: stats.NewECDF(w.Federation.OutDegrees()),
		Twitter:    stats.NewECDF(twitterGraph.OutDegrees()),
	}
}

// RemovalSeries is one curve pair of Fig 12/13.
type RemovalSeries struct {
	Label  string
	Points []graph.SweepPoint
}

// Fig12UserRemoval runs the §5.1 social-graph sensitivity experiment:
// iteratively remove the top 1% of remaining accounts by degree from both
// the Mastodon social graph and the Twitter baseline, tracking LCC size and
// the number of strongly connected components. The two sweeps run
// concurrently, each on its own Sweeper (DESIGN.md), and each goroutine
// fills a fixed slot, so the output order is deterministic.
func Fig12UserRemoval(w *dataset.World, twitterGraph *graph.CSR, rounds int) []RemovalSeries {
	opt := graph.SweepOptions{WithSCC: true}
	series := []RemovalSeries{
		{Label: "Mastodon"},
		{Label: "Twitter"},
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		series[0].Points = graph.NewSweeper(w.Social).IterativeDegreeRemoval(0.01, rounds, opt)
	}()
	go func() {
		defer wg.Done()
		series[1].Points = graph.NewSweeper(twitterGraph).IterativeDegreeRemoval(0.01, rounds, opt)
	}()
	wg.Wait()
	return series
}

// Fig13aInstanceRemoval removes the top-N instances from the federation
// graph ranked by hosted users and by hosted toots (Fig 13a). The two
// rankings' sweeps run concurrently, writing fixed output slots.
func Fig13aInstanceRemoval(w *dataset.World, topN int) []RemovalSeries {
	users := w.InstanceUserWeights()
	toots := w.InstanceTootWeights()
	opt := graph.SweepOptions{Weights: users}
	series := []RemovalSeries{
		{Label: "by Users Hosted"},
		{Label: "by Toots Posted"},
	}
	var wg sync.WaitGroup
	for i, scores := range [][]float64{users, toots} {
		wg.Add(1)
		go func(i int, scores []float64) {
			defer wg.Done()
			order := graph.RankDescending(scores)
			series[i].Points = graph.RemoveBatches(w.Federation, graph.SingletonBatches(order, topN), opt)
		}(i, scores)
	}
	wg.Wait()
	return series
}

// ASBatches groups instances per AS and returns batches ordered by the
// given per-AS score (descending), together with the AS names in order.
func ASBatches(w *dataset.World, score func(ids []int32) float64, topN int) (batches [][]int32, names []string) {
	grouped := w.ASInstances()
	type as struct {
		asn   int
		ids   []int32
		score float64
	}
	var list []as
	for asn, ids := range grouped {
		list = append(list, as{asn: asn, ids: ids, score: score(ids)})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].score != list[j].score {
			return list[i].score > list[j].score
		}
		return list[i].asn < list[j].asn
	})
	if topN > 0 && len(list) > topN {
		list = list[:topN]
	}
	for _, a := range list {
		batches = append(batches, a.ids)
		name := ""
		if as := w.ASByNumber(a.asn); as != nil {
			name = as.Name
		}
		names = append(names, name)
	}
	return batches, names
}

// Fig13bASRemoval removes the top-N ASes (all instances within) from the
// federation graph, ranked by hosted instances and by hosted users; the two
// rankings' sweeps run concurrently, writing fixed output slots.
func Fig13bASRemoval(w *dataset.World, topN int) []RemovalSeries {
	users := w.InstanceUserWeights()
	opt := graph.SweepOptions{Weights: users}
	byInst, _ := ASBatches(w, func(ids []int32) float64 { return float64(len(ids)) }, topN)
	byUsers, _ := ASBatches(w, func(ids []int32) float64 {
		var s float64
		for _, id := range ids {
			s += users[id]
		}
		return s
	}, topN)
	series := []RemovalSeries{
		{Label: "by Instances Hosted"},
		{Label: "by Users Hosted"},
	}
	var wg sync.WaitGroup
	for i, batches := range [][][]int32{byInst, byUsers} {
		wg.Add(1)
		go func(i int, batches [][]int32) {
			defer wg.Done()
			series[i].Points = graph.RemoveBatches(w.Federation, batches, opt)
		}(i, batches)
	}
	wg.Wait()
	return series
}

// HomeRemoteResult is Fig 14: the composition of each instance's federated
// timeline.
type HomeRemoteResult struct {
	// HomeSharePct[i] is instance i's home share of its federated timeline,
	// sorted ascending (the plot's x ordering).
	HomeSharePct []float64
	// Under10Pct is the share of instances producing <10% of their own
	// federated timeline (paper: 78%).
	Under10Pct float64
	// PureConsumersPct is the share with no home toots at all (paper: 5%).
	PureConsumersPct float64
	// GenerationReplicationCorr correlates toots generated with toots
	// replicated outward (paper: 0.97).
	GenerationReplicationCorr float64
}

// Fig14HomeRemote computes Fig 14 from the social graph and toot counters
// (remote toots on I = toots of distinct remote users that I's users
// follow, i.e. what federation pulls onto I's federated timeline).
func Fig14HomeRemote(w *dataset.World) HomeRemoteResult {
	f := computeFlows(w)
	var shares []float64
	pure := 0
	considered := 0
	var gen, rep []float64
	for i := range w.Instances {
		home := float64(w.Instances[i].Toots)
		remote := float64(f.tootsIn[i])
		gen = append(gen, home)
		rep = append(rep, float64(f.tootsOut[i]))
		if home+remote == 0 {
			continue
		}
		considered++
		share := home / (home + remote)
		shares = append(shares, pct(share))
		if home == 0 {
			pure++
		}
	}
	sort.Float64s(shares)
	r := HomeRemoteResult{HomeSharePct: shares}
	under10 := 0
	for _, s := range shares {
		if s < 10 {
			under10++
		}
	}
	if considered > 0 {
		r.Under10Pct = pct(float64(under10) / float64(considered))
		r.PureConsumersPct = pct(float64(pure) / float64(considered))
	}
	r.GenerationReplicationCorr = stats.Pearson(gen, rep)
	return r
}

// TopInstanceRow is one row of Table 2.
type TopInstanceRow struct {
	Domain    string
	HomeToots int64
	Users     int
	// Users OD/ID: distinct remote accounts followed from / following into
	// the instance.
	UsersOD, UsersID int
	// Toots OD/ID: delivery volume pushed out (toots × subscriber
	// instances) and toot mass pulled in from followed remote accounts.
	TootsOD, TootsID int64
	// Instance OD/ID: federation-graph degrees.
	InstOD, InstID int
	Operator       dataset.Operator
	ASName         string
	Country        string
}

// Table2TopInstances returns the top-k instances by home toots.
func Table2TopInstances(w *dataset.World, k int) []TopInstanceRow {
	f := computeFlows(w)
	order := graph.RankDescending(w.InstanceTootWeights())
	if k > len(order) {
		k = len(order)
	}
	rows := make([]TopInstanceRow, 0, k)
	for _, id := range order[:k] {
		in := &w.Instances[id]
		row := TopInstanceRow{
			Domain:    in.Domain,
			HomeToots: in.Toots,
			Users:     in.Users,
			UsersOD:   f.remoteFollowees[id],
			UsersID:   f.remoteFollowers[id],
			TootsOD:   f.tootsOut[id],
			TootsID:   f.tootsIn[id],
			InstOD:    w.Federation.OutDegree(id),
			InstID:    w.Federation.InDegree(id),
			Operator:  in.Operator,
			Country:   in.Country,
		}
		if as := w.ASByNumber(in.ASN); as != nil {
			row.ASName = as.Name
		}
		rows = append(rows, row)
	}
	return rows
}
