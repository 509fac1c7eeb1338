package analysis

import (
	"math"

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

// ExtCapacity runs the placement comparison with n replicas per toot on
// the world's placement state exp.
func ExtCapacity(w *dataset.World, exp *replication.Experiment, n, topN, samples int) CapacityResult {
	order := graph.RankDescending(w.InstanceTootWeights())
	batches := graph.SingletonBatches(order, topN)

	users := w.InstanceUserWeights()
	inv := make([]float64, len(users))
	for i, u := range users {
		inv[i] = 1 / (u + 1)
	}

	r := CapacityResult{
		Uniform:         exp.Sweep(replication.RandRep{N: n, Exact: true}, batches),
		Capacity:        exp.Sweep(replication.NewWeightedRep(n, users, samples, 1, "capacity"), batches),
		InverseCapacity: exp.Sweep(replication.NewWeightedRep(n, inv, samples, 1, "inverse"), batches),
	}
	for i := range len(batches) + 1 {
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
// S-Rep placement, read off exp), then removes top instances and measures
// index resolvability and end-to-end discovery.
//
// A key resolves while one of its index holders is up (the ring's pinned
// invariant), and is discoverable while it resolves and one of its
// locations is up. Instances only fall, so each key is reduced to two
// removal times: when its last holder falls and when it stops being
// discoverable. Every measure point is then a sum of whole toot counts
// over the keys still above it, exact in any order.
func ExtDHT(w *dataset.World, exp *replication.Experiment, topN, checkEvery int) DHTResult {
	checkEvery = max(checkEvery, 1)
	ring := dht.NewRing(dht.DefaultReplication)
	domains := make([]string, len(w.Instances))
	for i := range w.Instances {
		domains[i] = w.Instances[i].Domain
	}
	ring.JoinAll(domains)

	// falls[d]: how many removals domain d survives; at[i], instance i's.
	order := graph.RankDescending(w.InstanceTootWeights())
	removed := max(min(topN, len(order)), 0)
	falls := make(map[string]int32, len(domains))
	for k := removed - 1; k >= 0; k-- {
		falls[domains[order[k]]] = int32(k)
	}
	fallsAt := func(d string) int32 {
		if k, ok := falls[d]; ok {
			return k
		}
		return math.MaxInt32
	}
	at := make([]int32, len(domains))
	for i, d := range domains {
		at[i] = fallsAt(d)
	}

	// unresolved[k] / hidden[k]: toots whose key stops resolving / being
	// discoverable at the k-th removal.
	unresolved := make([]float64, removed)
	hidden := make([]float64, removed)
	var totalT float64
	indexed := 0
	var locs []string
	for u := range w.Users {
		if w.Users[u].Toots == 0 {
			continue
		}
		home := w.Users[u].Instance
		locs = append(locs[:0], domains[home])
		located := at[home]
		for _, fi := range exp.FollowerInstances(int32(u)) {
			locs = append(locs, domains[fi])
			located = max(located, at[fi])
		}
		holders, err := ring.Put(dht.AuthorKey(int32(u)), locs)
		if err != nil {
			continue // unreachable: the ring has every instance as a member
		}
		indexed++
		toots := float64(w.Users[u].Toots)
		totalT += toots
		resolved := int32(0)
		for _, h := range holders {
			resolved = max(resolved, fallsAt(h))
		}
		if resolved < int32(removed) {
			unresolved[resolved] += toots
		}
		if found := min(resolved, located); found < int32(removed) {
			hidden[found] += toots
		}
	}

	rs := ring.RouteStats(256)
	res := DHTResult{
		Nodes:       ring.Size(),
		MeanHops:    rs.MeanHops,
		MaxHops:     rs.MaxHops,
		IndexedKeys: indexed,
		Replication: dht.DefaultReplication,
	}
	indexUpT, discoverT := totalT, totalT
	measure := func(removed int) {
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
	for k := range removed {
		indexUpT -= unresolved[k]
		discoverT -= hidden[k]
		if (k+1)%checkEvery == 0 || k == removed-1 {
			measure(k + 1)
		}
	}
	return res
}
