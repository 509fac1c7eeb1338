// Package analysis computes every table and figure of the paper's
// evaluation from a dataset.World. Each experiment has one entry point
// named after the paper artefact (Fig1Growth ... Fig16RandomReplication,
// Table1ASFailures, Table2TopInstances) returning typed rows/series, plus a
// text renderer used by cmd/fedibench to print paper-style output.
//
// DESIGN.md carries the experiment index mapping every id to its modules
// and benchmark.
package analysis

import (
	"repro/internal/dataset"
)

// flows holds per-instance federation aggregates shared by Fig 6, Fig 14 and
// Table 2: who follows whom across instance boundaries and how much toot
// mass moves.
type flows struct {
	// remoteFollowees[i]: distinct remote users that users of i follow.
	remoteFollowees []int
	// remoteFollowers[i]: distinct remote users following users of i.
	remoteFollowers []int
	// tootsIn[i]: Σ toots of distinct remote users followed from i — the
	// volume replicated *onto* i's federated timeline.
	tootsIn []int64
	// tootsOut[i]: Σ over local users u of toots(u) × #remote instances
	// subscribed to u — the delivery volume pushed out of i.
	tootsOut []int64
}

// computeFlows is O(U+E). Ids are dense, so every "distinct" is a
// last-writer stamp rather than a set: users are walked instance by
// instance, and during instance i's walk seenFrom[v] == i+1 says remote
// account v was already followed from i, and byUser[j] == u+1 that user u
// already follows into instance j (in the second pass: that j already
// subscribes to author v).
//
// Table 2 and Fig 14 each call it, so RunAll walks the graph twice for one
// world. That is deliberate: the walk is a few milliseconds, while a result
// cached across experiments (this table, or the Twitter baseline graph)
// stays live beside the World, and the benchmark's paper-pipeline workload
// holds live_heap_mb to within 1 MB of what the World alone needs.
func computeFlows(w *dataset.World) *flows {
	n := len(w.Instances)
	social := w.Social
	f := &flows{
		remoteFollowees: make([]int, n),
		remoteFollowers: make([]int, n),
		tootsIn:         make([]int64, n),
		tootsOut:        make([]int64, n),
	}
	inst := w.UserInstance()
	seenFrom := make([]int32, len(w.Users))
	byUser := make([]int32, n)
	for i, members := range w.InstanceUsers() {
		i := int32(i)
		for _, u := range members {
			for _, v := range social.Out(u) {
				vInst := inst[v]
				if vInst == i {
					continue
				}
				if seenFrom[v] != i+1 {
					seenFrom[v] = i + 1
					f.remoteFollowees[i]++
					f.tootsIn[i] += int64(w.Users[v].Toots)
				}
				if byUser[vInst] != u+1 {
					byUser[vInst] = u + 1
					f.remoteFollowers[vInst]++
				}
			}
		}
	}
	// tootsOut: per author, count distinct subscriber instances.
	clear(byUser)
	for v := range w.Users {
		toots := int64(w.Users[v].Toots)
		if toots == 0 {
			continue
		}
		vInst := inst[v]
		subs := int64(0)
		for _, follower := range social.In(int32(v)) {
			if fi := inst[follower]; fi != vInst && byUser[fi] != int32(v)+1 {
				byUser[fi] = int32(v) + 1
				subs++
			}
		}
		f.tootsOut[vInst] += toots * subs
	}
	return f
}

// aliveWindow returns the probe-slot window during which instance i existed.
func aliveWindow(w *dataset.World, i int) (fromSlot, toSlot int) {
	in := &w.Instances[i]
	from := in.CreatedDay * dataset.SlotsPerDay
	to := w.Days * dataset.SlotsPerDay
	if in.GoneDay >= 0 {
		to = in.GoneDay * dataset.SlotsPerDay
	}
	return from, to
}

// pct formats a fraction as a percentage value.
func pct(x float64) float64 { return 100 * x }
