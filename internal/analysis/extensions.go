package analysis

import (
	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/replication"
)

// This file implements the extension experiments beyond the paper's
// figures, grounded in its discussion sections:
//
//   - ext-blocking (§7): the graph impact of Mastodon's instance blocking;
//   - ext-capacity (§5.2 closing remark): capacity-weighted replication;
//   - ext-dht (§5.2 assumption): DHT-indexed toot discovery under failures.

// BlockingResult quantifies the defederation impact on both graphs.
type BlockingResult struct {
	BlockingInstances int     // instances with a non-empty blocklist
	BlockedPairs      int     // directed (blocker, blocked) pairs
	FedLinksCutPct    float64 // federation edges severed
	SocialEdgesCutPct float64 // follow relationships severed
	LCCBefore         float64 // federation LCC (instance fraction)
	LCCAfter          float64
	UserCoverageAfter float64 // users still in the federation LCC (weight)
}

// ExtBlocking applies every instance's blocklist to both graphs: an edge
// a→b (in GF, or between users of a and b in G) is severed when either side
// blocks the other, and measures the damage.
func ExtBlocking(w *dataset.World) BlockingResult {
	n := len(w.Instances)
	blocks := make(map[int64]bool) // packed (a,b): a blocks b
	var r BlockingResult
	for i := range w.Instances {
		if len(w.Instances[i].Blocks) > 0 {
			r.BlockingInstances++
		}
		for _, b := range w.Instances[i].Blocks {
			blocks[int64(i)<<32|int64(b)] = true
			r.BlockedPairs++
		}
	}
	severed := func(a, b int32) bool {
		return blocks[int64(a)<<32|int64(b)] || blocks[int64(b)<<32|int64(a)]
	}

	// Federation graph with severed edges removed.
	fed := w.Federation
	fedAfter := graph.NewBuilder(n)
	cut := 0
	for v := 0; v < n; v++ {
		for _, u := range fed.Out(int32(v)) {
			if severed(int32(v), u) {
				cut++
				continue
			}
			fedAfter.AddEdge(int32(v), u)
		}
	}
	if e := fed.NumEdges(); e > 0 {
		r.FedLinksCutPct = pct(float64(cut) / float64(e))
	}

	// Social edges crossing a blocked pair.
	social := w.Social
	cutSocial := 0
	for u := 0; u < len(w.Users); u++ {
		iu := w.Users[u].Instance
		for _, v := range social.Out(int32(u)) {
			iv := w.Users[v].Instance
			if iu != iv && severed(iu, iv) {
				cutSocial++
			}
		}
	}
	if e := social.NumEdges(); e > 0 {
		r.SocialEdgesCutPct = pct(float64(cutSocial) / float64(e))
	}

	users := w.InstanceUserWeights()
	before := fed.WeaklyConnected(nil)
	after := fedAfter.Freeze().WeaklyConnected(nil)
	r.LCCBefore = float64(before.LargestSize) / float64(n)
	r.LCCAfter = float64(after.LargestSize) / float64(n)
	var totalW, lccW float64
	for i, uw := range users {
		totalW += uw
		if after.InLargest(int32(i)) {
			lccW += uw
		}
	}
	if totalW > 0 {
		r.UserCoverageAfter = lccW / totalW
	}
	return r
}

// CapacityResult compares replica-placement weightings under top-N
// instance removal (ranked by toots).
type CapacityResult struct {
	Removed []int
	// Availability (%) per weighting at each removal point.
	Uniform         []float64
	Capacity        []float64 // ∝ hosted users: replicas pile onto the hubs
	InverseCapacity []float64 // ∝ 1/users: replicas spread to the long tail
}

// ExtCapacity runs the placement comparison with n replicas per toot.
func ExtCapacity(w *dataset.World, n, topN, samples int) CapacityResult {
	exp := replication.New(w)
	order := graph.RankDescending(w.InstanceTootWeights())
	batches := graph.SingletonBatches(order, topN)

	users := w.InstanceUserWeights()
	inv := make([]float64, len(users))
	for i, u := range users {
		inv[i] = 1 / (u + 1)
	}

	uniform := exp.Sweep(replication.RandRep{N: n, Exact: true}, batches)
	capacity := exp.Sweep(replication.NewWeightedRep(n, users, samples, 1, "capacity"), batches)
	inverse := exp.Sweep(replication.NewWeightedRep(n, inv, samples, 1, "inverse"), batches)

	r := CapacityResult{
		Uniform:         uniform,
		Capacity:        capacity,
		InverseCapacity: inverse,
	}
	for i := 0; i <= topN; i++ {
		r.Removed = append(r.Removed, i)
	}
	return r
}

// DHTResult measures the §5.2 global index itself under failures.
type DHTResult struct {
	Nodes       int
	MeanHops    float64 // routing cost ≈ O(log N)
	MaxHops     int
	IndexedKeys int
	// Per removal point (top-N instances by toots): share of index entries
	// still resolvable (the index survives via successor replication) and
	// share of toots fully discoverable (index up AND ≥1 content replica
	// up).
	Removed     []int
	IndexUpPct  []float64
	DiscoverPct []float64
	Replication int
}

// ExtDHT builds the DHT over all federating instances, indexes every
// tooting author's replica locations (home + follower instances, i.e. the
// S-Rep placement), then removes top instances and measures index
// resolvability and end-to-end discovery.
func ExtDHT(w *dataset.World, topN, checkEvery int) DHTResult {
	if checkEvery < 1 {
		checkEvery = 1
	}
	ring := dht.NewRing(dht.DefaultReplication)
	domains := make([]string, len(w.Instances))
	for i := range w.Instances {
		domains[i] = w.Instances[i].Domain
	}
	ring.JoinAll(domains)

	// Index: author → replica-holding domains.
	type indexed struct {
		key   string
		toots float64
	}
	var keys []indexed
	for u := range w.Users {
		if w.Users[u].Toots == 0 {
			continue
		}
		home := w.Users[u].Instance
		locs := []string{w.Instances[home].Domain}
		seen := map[int32]struct{}{home: {}}
		for _, f := range w.Social.In(int32(u)) {
			fi := w.Users[f].Instance
			if _, ok := seen[fi]; ok {
				continue
			}
			seen[fi] = struct{}{}
			locs = append(locs, w.Instances[fi].Domain)
		}
		key := dht.AuthorKey(int32(u))
		if _, err := ring.Put(key, locs); err != nil {
			continue // unreachable: the ring has every instance as a member
		}
		keys = append(keys, indexed{key: key, toots: float64(w.Users[u].Toots)})
	}

	rs := ring.RouteStats(256)
	res := DHTResult{
		Nodes:       ring.Size(),
		MeanHops:    rs.MeanHops,
		MaxHops:     rs.MaxHops,
		IndexedKeys: len(keys),
		Replication: dht.DefaultReplication,
	}

	order := graph.RankDescending(w.InstanceTootWeights())
	downDomain := make(map[string]bool)
	measure := func(removed int) {
		var totalT, indexUpT, discoverT float64
		for _, k := range keys {
			totalT += k.toots
			locs, _, err := ring.Get(k.key)
			if err != nil {
				continue
			}
			indexUpT += k.toots
			for _, d := range locs {
				if !downDomain[d] {
					discoverT += k.toots
					break
				}
			}
		}
		res.Removed = append(res.Removed, removed)
		if totalT > 0 {
			res.IndexUpPct = append(res.IndexUpPct, pct(indexUpT/totalT))
			res.DiscoverPct = append(res.DiscoverPct, pct(discoverT/totalT))
		} else {
			res.IndexUpPct = append(res.IndexUpPct, 0)
			res.DiscoverPct = append(res.DiscoverPct, 0)
		}
	}
	measure(0)
	for k := 0; k < topN && k < len(order); k++ {
		domain := w.Instances[order[k]].Domain
		ring.SetDown(domain, true)
		downDomain[domain] = true
		if (k+1)%checkEvery == 0 || k == topN-1 {
			measure(k + 1)
		}
	}
	return res
}
