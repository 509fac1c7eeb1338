package analysis

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/replication"
)

func TestExtBlocking(t *testing.T) {
	w := smallWorld(t)
	r := ExtBlocking(w)
	if r.BlockingInstances == 0 || r.BlockedPairs == 0 {
		t.Fatal("no blocklists generated")
	}
	if r.FedLinksCutPct <= 0 || r.FedLinksCutPct > 25 {
		t.Fatalf("federation links severed = %.1f%%, want a modest positive share", r.FedLinksCutPct)
	}
	if r.SocialEdgesCutPct <= 0 || r.SocialEdgesCutPct > 25 {
		t.Fatalf("social edges severed = %.2f%%", r.SocialEdgesCutPct)
	}
	// The §7 answer: policy-driven blocking trims edges but does not
	// meaningfully fragment the federation (the graph is redundant).
	if r.LCCAfter < r.LCCBefore-0.05 {
		t.Fatalf("LCC dropped %.3f → %.3f: blocking should not shatter GF", r.LCCBefore, r.LCCAfter)
	}
	if r.UserCoverageAfter < 0.9 {
		t.Fatalf("user coverage after blocking = %.3f", r.UserCoverageAfter)
	}
}

func TestExtCapacity(t *testing.T) {
	w := smallWorld(t)
	r := ExtCapacity(w, replication.New(w), 2, 20, 8)
	if len(r.Removed) != 21 || len(r.Uniform) != 21 {
		t.Fatalf("series lengths: %d/%d", len(r.Removed), len(r.Uniform))
	}
	// The §5.2 pathology: capacity-proportional placement is much worse
	// than uniform under top-instance failures; inverse-capacity at least
	// matches uniform.
	if r.Capacity[20] >= r.Uniform[20]-5 {
		t.Fatalf("capacity placement %.1f should trail uniform %.1f clearly",
			r.Capacity[20], r.Uniform[20])
	}
	if r.InverseCapacity[20] < r.Uniform[20]-2 {
		t.Fatalf("inverse-capacity %.1f should keep up with uniform %.1f",
			r.InverseCapacity[20], r.Uniform[20])
	}
	for i := 1; i < len(r.Removed); i++ {
		for _, s := range [][]float64{r.Uniform, r.Capacity, r.InverseCapacity} {
			if s[i] > s[i-1]+1e-6 {
				t.Fatal("availability increased while removing instances")
			}
		}
	}
}

func TestExtDHT(t *testing.T) {
	w := smallWorld(t)
	r := ExtDHT(w, replication.New(w), 50, 10)
	if r.Nodes != len(w.Instances) {
		t.Fatalf("ring nodes = %d", r.Nodes)
	}
	if r.IndexedKeys == 0 {
		t.Fatal("nothing indexed")
	}
	// Routing must be logarithmic-ish, far below linear.
	if r.MeanHops > 2*math.Log2(float64(r.Nodes))+2 {
		t.Fatalf("mean hops %.1f too high for %d nodes", r.MeanHops, r.Nodes)
	}
	if len(r.Removed) < 2 {
		t.Fatalf("removal series too short: %v", r.Removed)
	}
	first, last := 0, len(r.Removed)-1
	if r.IndexUpPct[first] != 100 || r.DiscoverPct[first] != 100 {
		t.Fatalf("intact system should be fully discoverable: %v %v", r.IndexUpPct[first], r.DiscoverPct[first])
	}
	// With k=3 index replication over 1000 nodes, removing 50 instances
	// barely touches index resolvability, while content discovery decays
	// like the S-Rep availability curve.
	if r.IndexUpPct[last] < 99 {
		t.Fatalf("index resolvability dropped to %.1f%%; successor replication should protect it", r.IndexUpPct[last])
	}
	if r.DiscoverPct[last] >= r.IndexUpPct[last] {
		t.Fatal("content discovery cannot exceed index resolvability")
	}
	if r.DiscoverPct[last] > 95 || r.DiscoverPct[last] < 20 {
		t.Fatalf("discovery after 50 removals = %.1f%%, want an S-Rep-like decay", r.DiscoverPct[last])
	}
}

// ExtCapacity has one removal label per point of its series, also when
// topN asks for more instances than the world has.
func TestExtCapacityRemovedMatchesSeries(t *testing.T) {
	w := gen.Generate(gen.TinyConfig(1))
	r := ExtCapacity(w, replication.New(w), 2, len(w.Instances)+10, 4)
	for _, s := range [][]float64{r.Uniform, r.Capacity, r.InverseCapacity} {
		if len(s) != len(w.Instances)+1 || len(r.Removed) != len(s) {
			t.Fatalf("%d removal labels for %d values; the world has %d instances", len(r.Removed), len(s), len(w.Instances))
		}
	}
	for i, n := range r.Removed {
		if n != i {
			t.Fatalf("Removed[%d] = %d", i, n)
		}
	}
}

// ExtDHT always measures the state after its last removal, also when topN
// exceeds the ranked instances and checkEvery does not divide their count.
func TestExtDHTMeasuresFinalState(t *testing.T) {
	w := gen.Generate(gen.TinyConfig(1))
	r := ExtDHT(w, replication.New(w), len(w.Instances)+10, 7)
	if last := r.Removed[len(r.Removed)-1]; last != len(w.Instances) {
		t.Fatalf("last point has %d of %d instances removed", last, len(w.Instances))
	}
}

// refExtDHT is ExtDHT as it was before it reduced each key to removal times:
// every measure point asks the ring for every key (Get, which fails once all
// of the key's holders are down) and checks the returned locations against
// the down set. It builds the locations from the social graph, not from the
// replication Experiment. The final state is measured whatever topN is.
func refExtDHT(w *dataset.World, topN, checkEvery int) DHTResult {
	if checkEvery < 1 {
		checkEvery = 1
	}
	ring := dht.NewRing(dht.DefaultReplication)
	domains := make([]string, len(w.Instances))
	for i := range w.Instances {
		domains[i] = w.Instances[i].Domain
	}
	ring.JoinAll(domains)

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
			continue
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
	last := min(topN, len(order)) - 1
	for k := 0; k <= last; k++ {
		domain := w.Instances[order[k]].Domain
		ring.SetDown(domain, true)
		downDomain[domain] = true
		if (k+1)%checkEvery == 0 || k == last {
			measure(k + 1)
		}
	}
	return res
}

// ExtDHT's threshold sums are the per-point Get loop, bit for bit, on
// three worlds and on one whose instances share domains.
func TestExtDHTMatchesReference(t *testing.T) {
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	worlds := []*dataset.World{gen.Generate(gen.TinyConfig(1)), gen.Generate(gen.TinyConfig(2)), gen.Generate(gen.TinyConfig(3))}
	// A world where every fifth instance shares its neighbour's domain: one
	// ring member for two instances, down from the first one's removal.
	shared := *worlds[0]
	shared.Instances = slices.Clone(shared.Instances)
	for i := 5; i < len(shared.Instances); i += 5 {
		shared.Instances[i].Domain = shared.Instances[i-1].Domain
	}
	worlds = append(worlds, &shared)
	for seed, w := range worlds {
		exp := replication.New(w)
		n := len(w.Instances)
		for _, c := range [][2]int{{-1, 1}, {0, 0}, {1, 1}, {25, 1}, {50, 10}, {n / 2, 7}, {n, 3}, {n + 10, 7}} {
			got, want := ExtDHT(w, exp, c[0], c[1]), refExtDHT(w, c[0], c[1])
			if !sameBits(got.IndexUpPct, want.IndexUpPct) || !sameBits(got.DiscoverPct, want.DiscoverPct) ||
				!slices.Equal(got.Removed, want.Removed) ||
				math.Float64bits(got.MeanHops) != math.Float64bits(want.MeanHops) ||
				got.Nodes != want.Nodes || got.MaxHops != want.MaxHops ||
				got.IndexedKeys != want.IndexedKeys || got.Replication != want.Replication {
				t.Fatalf("world %d, topN %d, checkEvery %d:\n got  %+v\n want %+v", seed, c[0], c[1], got, want)
			}
		}
	}
}
