package analysis

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// refComputeFlows is computeFlows as it stood before the stamps: one dedup
// set per instance for followees and followers, one per author for
// subscriber instances.
func refComputeFlows(w *dataset.World) *flows {
	n := len(w.Instances)
	f := &flows{
		remoteFollowees: make([]int, n),
		remoteFollowers: make([]int, n),
		tootsIn:         make([]int64, n),
		tootsOut:        make([]int64, n),
	}
	followeeSeen := make([]map[int32]struct{}, n)
	followerSeen := make([]map[int32]struct{}, n)
	for i := range followeeSeen {
		followeeSeen[i] = make(map[int32]struct{})
		followerSeen[i] = make(map[int32]struct{})
	}
	for u := 0; u < len(w.Users); u++ {
		uInst := w.Users[u].Instance
		for _, v := range w.Social.Out(int32(u)) {
			vInst := w.Users[v].Instance
			if vInst == uInst {
				continue
			}
			if _, ok := followeeSeen[uInst][v]; !ok {
				followeeSeen[uInst][v] = struct{}{}
				f.remoteFollowees[uInst]++
				f.tootsIn[uInst] += int64(w.Users[v].Toots)
			}
			if _, ok := followerSeen[vInst][int32(u)]; !ok {
				followerSeen[vInst][int32(u)] = struct{}{}
				f.remoteFollowers[vInst]++
			}
		}
	}
	for v := 0; v < len(w.Users); v++ {
		toots := int64(w.Users[v].Toots)
		if toots == 0 {
			continue
		}
		vInst := w.Users[v].Instance
		subs := make(map[int32]struct{})
		for _, follower := range w.Social.In(int32(v)) {
			if fi := w.Users[follower].Instance; fi != vInst {
				subs[fi] = struct{}{}
			}
		}
		f.tootsOut[vInst] += toots * int64(len(subs))
	}
	return f
}

// scatteredWorld is what a generated world never is: users of one instance
// spread over the id range (as after a crawl or a merge), empty instances,
// duplicate follow edges, self-follows and users with no edges at all.
func scatteredWorld(insts, users, edges int, seed uint64) *dataset.World {
	r := rand.New(rand.NewPCG(seed, 21))
	w := &dataset.World{Days: 1, Instances: make([]dataset.Instance, insts), Users: make([]dataset.User, users)}
	for u := range w.Users {
		w.Users[u] = dataset.User{ID: int32(u), Instance: int32(r.IntN(insts) * r.IntN(2)), Toots: int32(r.IntN(4) * r.IntN(50))}
	}
	b := graph.NewBuilder(users)
	for e := 0; e < edges && users > 0; e++ {
		b.AddEdge(int32(r.IntN(users)), int32(r.IntN(users)))
	}
	w.Social = b.Freeze()
	return w
}

func TestComputeFlowsMatchesMapVersion(t *testing.T) {
	worlds := map[string]*dataset.World{
		"empty":     scatteredWorld(0, 0, 0, 1),
		"no users":  scatteredWorld(5, 0, 0, 1),
		"one user":  scatteredWorld(1, 1, 3, 1),
		"tiny":      gen.Generate(gen.TinyConfig(3)),
		"small":     smallWorld(t),
		"scattered": scatteredWorld(7, 60, 400, 2),
		"dense":     scatteredWorld(3, 12, 600, 3),
		"sparse":    scatteredWorld(40, 200, 90, 4),
	}
	for name, w := range worlds {
		if got, want := computeFlows(w), refComputeFlows(w); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: computeFlows disagrees with the map version:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
