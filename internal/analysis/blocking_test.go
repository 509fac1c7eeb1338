package analysis

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// refExtBlocking is ExtBlocking as it was before the bitset: the severed
// relation is a map of packed (blocker, blocked) pairs, looked up both ways
// for every federation edge and every cross-instance follow.
func refExtBlocking(w *dataset.World) BlockingResult {
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

// blockWorld is a hand-built world: home[u] is user u's instance, follows
// the social edges, blocks each instance's blocklist. The federation graph
// has an edge a→b for every follow between users of a and b, self-loops
// included.
func blockWorld(home []int32, follows [][2]int32, blocks [][]int32) *dataset.World {
	n := len(blocks)
	w := &dataset.World{Days: 1, Instances: make([]dataset.Instance, n), Users: make([]dataset.User, len(home))}
	for i := range w.Instances {
		w.Instances[i].ID, w.Instances[i].Blocks = int32(i), blocks[i]
	}
	social, fed := graph.NewBuilder(len(home)), graph.NewBuilder(n)
	for u, h := range home {
		w.Users[u] = dataset.User{ID: int32(u), Instance: h}
		w.Instances[h].Users++
	}
	for _, f := range follows {
		social.AddEdge(f[0], f[1])
		fed.AddEdge(home[f[0]], home[f[1]])
	}
	w.Social, w.Federation = social.Freeze(), fed.Freeze()
	return w
}

// The bitset is the map it replaced, field for field, on generated worlds
// and on hand-built ones that reach each corner of the relation.
func TestExtBlockingMatchesReference(t *testing.T) {
	worlds := map[string]*dataset.World{
		"small": smallWorld(t),
		"tiny":  gen.Generate(gen.TinyConfig(2)),
	}
	// Five instances, two users each; every user follows the next two.
	home := []int32{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	var ring [][2]int32
	for u := range home {
		ring = append(ring, [2]int32{int32(u), int32((u + 2) % len(home))}, [2]int32{int32(u), int32((u + 3) % len(home))})
	}
	for name, blocks := range map[string][][]int32{
		"mutual":       {{1}, {0}, nil, nil, nil},
		"self-block":   {nil, nil, {2}, nil, nil},
		"duplicates":   {{3, 3, 1}, nil, nil, {1, 1}, nil},
		"out-of-range": {{5, 70, -1}, {1 << 20}, nil, nil, {3}},
		"none":         {nil, nil, nil, nil, nil},
		"everyone":     {{1, 2, 3, 4}, {0, 2, 3, 4}, {0, 1, 3, 4}, {0, 1, 2, 4}, {0, 1, 2, 3}},
	} {
		worlds[name] = blockWorld(home, ring, blocks)
	}
	// Instance 2 blocks 0 and has no users, so no edges.
	worlds["edgeless-blocker"] = blockWorld([]int32{0, 0, 1, 1}, [][2]int32{{0, 2}, {1, 3}, {2, 0}, {3, 1}, {0, 1}}, [][]int32{nil, nil, {0}})
	worlds["one-instance"] = blockWorld([]int32{0, 0, 0}, [][2]int32{{0, 1}, {1, 2}, {2, 0}}, [][]int32{{0}})
	worlds["two-instances"] = blockWorld([]int32{0, 1, 0, 1}, [][2]int32{{0, 1}, {1, 0}, {2, 3}, {0, 2}}, [][]int32{nil, {0}})
	// 130 instances, so rows span three words: instance 129 blocks 0 and
	// 64, and 64 blocks 127.
	wide := make([][]int32, 130)
	wide[129], wide[64] = []int32{0, 64}, []int32{127}
	var wideHome []int32
	var wideFollows [][2]int32
	for i := range 130 {
		wideHome = append(wideHome, int32(i))
		wideFollows = append(wideFollows, [2]int32{int32(i), int32((i*37 + 1) % 130)}, [2]int32{int32(i), int32(129 - i)})
	}
	wideFollows = append(wideFollows, [2]int32{129, 0}, [2]int32{0, 129}, [2]int32{64, 127}, [2]int32{127, 64}, [2]int32{129, 64})
	worlds["wide"] = blockWorld(wideHome, wideFollows, wide)

	for name, w := range worlds {
		if got, want := ExtBlocking(w), refExtBlocking(w); got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", name, got, want)
		}
	}
	if r := ExtBlocking(worlds["mutual"]); r.SocialEdgesCutPct == 0 || r.FedLinksCutPct == 0 {
		t.Fatalf("mutual blocks severed nothing: %+v", r)
	}
}

func BenchmarkExtBlocking(b *testing.B) {
	w := gen.Generate(benchConfig(1))
	for _, k := range []struct {
		name string
		f    func(*dataset.World) BlockingResult
	}{{"bitset", ExtBlocking}, {"map", refExtBlocking}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				k.f(w)
			}
		})
	}
}

// benchConfig is the world bench/ runs paper-pipeline on: the small preset
// at 500 instances and 20,000 users.
func benchConfig(seed uint64) gen.Config {
	cfg := gen.SmallConfig(seed)
	cfg.Instances, cfg.Users = 500, 20000
	return cfg
}
