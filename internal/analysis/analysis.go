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

// computeFlows walks the social graph once.
func computeFlows(w *dataset.World) *flows {
	n := len(w.Instances)
	social := w.Social
	f := &flows{
		remoteFollowees: make([]int, n),
		remoteFollowers: make([]int, n),
		tootsIn:         make([]int64, n),
		tootsOut:        make([]int64, n),
	}
	// Distinct remote followees/followers per instance via per-instance
	// last-seen stamps would need O(U×I); instead walk edges grouped by
	// endpoint instance with per-(instance,user) dedup sets.
	followeeSeen := make([]map[int32]struct{}, n)
	followerSeen := make([]map[int32]struct{}, n)
	for i := range followeeSeen {
		followeeSeen[i] = make(map[int32]struct{})
		followerSeen[i] = make(map[int32]struct{})
	}
	// subscriberInstances[u]: distinct instances with followers of u — used
	// for tootsOut. Reuse a map per user.
	for u := 0; u < len(w.Users); u++ {
		uInst := w.Users[u].Instance
		for _, v := range social.Out(int32(u)) {
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
	// tootsOut: per author, count distinct subscriber instances.
	subs := make(map[int32]struct{}, 8)
	for v := 0; v < len(w.Users); v++ {
		toots := int64(w.Users[v].Toots)
		if toots == 0 {
			continue
		}
		vInst := w.Users[v].Instance
		clear(subs)
		for _, follower := range social.In(int32(v)) {
			fi := w.Users[follower].Instance
			if fi != vInst {
				subs[fi] = struct{}{}
			}
		}
		f.tootsOut[vInst] += toots * int64(len(subs))
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
