package replication

import (
	"strconv"

	"repro/internal/dataset"
	"repro/internal/dht"
)

// DHTRep places every user's toots on the ring successors of the user's
// author key — the §5.2 "global DHT index" made concrete: the instances
// that hold a user's directory record also hold the replicas, so replica
// placement and replica discovery are the same keyspace walk. Placement is
// membership-based (the ring's documented model): holders are fixed by the
// ring geometry at build time, and a down holder's copy is simply
// unreachable until it recovers.
//
// Build with NewDHTRep; the ring's members must be the world's instance
// domains (extra ring members that match no instance are ignored).
type DHTRep struct {
	placed [][]int32 // per-user replica instance indices, home excluded
	label  string
}

// NewDHTRep resolves each user's replica set from the ring: the holders of
// dht.AuthorKey(user), mapped back to world instance indices, minus the
// author's home instance.
func NewDHTRep(w *dataset.World, ring *dht.Ring) DHTRep {
	byDomain := make(map[string]int32, len(w.Instances))
	for i := range w.Instances {
		byDomain[w.Instances[i].Domain] = int32(i)
	}
	placed := make([][]int32, len(w.Users))
	for u := range w.Users {
		holders, err := ring.Holders(dht.AuthorKey(w.Users[u].ID))
		if err != nil {
			continue // empty ring: nothing placed anywhere
		}
		insts := make([]int32, 0, len(holders))
		for _, h := range holders {
			inst, ok := byDomain[h]
			if !ok || inst == w.Users[u].Instance {
				continue
			}
			insts = append(insts, inst)
		}
		placed[u] = insts
	}
	return DHTRep{placed: placed, label: "DHT-Rep(n=" + strconv.Itoa(ring.Replication()) + ")"}
}

// Name implements Strategy.
func (s DHTRep) Name() string { return s.label }

func (s DHTRep) series(exp *Experiment, at []int32, points int) []float64 {
	return exp.runFixed(s, at, points)
}

func (s DHTRep) replicas(_ *Experiment, u int32) []int32 { return s.placed[u] }

func (s DHTRep) survives(sw *sweep, u int32) bool { return sw.held(s.placed[u]) }
