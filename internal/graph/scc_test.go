package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// seriesMatchesRef runs the SCC engine over a schedule, holds every point
// to refSCC over the alive mask of that point, checks that the contracted
// graph has no self-loop and no repeated edge, and returns its node count.
func seriesMatchesRef(t *testing.T, c *CSR, survivors []int32, batches [][]int32) (contracted int) {
	t.Helper()
	points := make([]SweepPoint, len(batches)+1)
	sc := newSCCScratch(c.NumNodes())
	sc.series(c, survivors, batches, points)
	contracted = len(sc.off) - 1
	for x := 0; x < contracted; x++ {
		row := slices.Clone(sc.adj[sc.off[x]:sc.off[x+1]])
		slices.Sort(row)
		if slices.Contains(row, int32(x)) || len(slices.Compact(row)) != int(sc.off[x+1]-sc.off[x]) {
			t.Fatalf("contracted row %d = %v: a self-loop or a repeated edge", x, sc.adj[sc.off[x]:sc.off[x+1]])
		}
	}
	alive := make([]bool, c.NumNodes())
	for _, v := range survivors {
		alive[v] = true
	}
	for _, batch := range batches {
		for _, v := range batch {
			alive[v] = true
		}
	}
	for p := range points {
		if p > 0 {
			for _, v := range batches[p-1] {
				alive[v] = false
			}
		}
		if want := refSCC(c, alive); points[p].SCCs != want {
			t.Fatalf("point %d of %d: SCCs = %d, want %d (survivors %v, batches %v)",
				p, len(points), points[p].SCCs, want, survivors, batches)
		}
	}
	return contracted
}

// randomSchedule splits n nodes at random into some dead before the sweep,
// up to ten batches (often some empty) and the survivors — none if exhaust.
func randomSchedule(r *rand.Rand, n int, exhaust bool) (survivors []int32, batches [][]int32) {
	perm := r.Perm(n)
	rest := perm[r.IntN(n/4+1):]
	keep := 0
	if !exhaust {
		keep = r.IntN(len(rest) + 1)
	}
	for _, v := range rest[:keep] {
		survivors = append(survivors, int32(v))
	}
	batches = make([][]int32, 1+r.IntN(10))
	for _, v := range rest[keep:] {
		b := r.IntN(len(batches))
		batches[b] = append(batches[b], int32(v))
	}
	return survivors, batches
}

// largestFinalSCC is the size of the largest SCC among survivors.
func largestFinalSCC(c *CSR, survivors []int32) int {
	t := newSCCScratch(c.NumNodes())
	t.partition(c, survivors)
	largest := 0
	for s := int32(0); int(s) < len(survivors); s = t.end[s] {
		largest = max(largest, int(t.end[s]-s))
	}
	return largest
}

// Property: at every point of a removal schedule the decremental count
// equals the count from the definition, on random graphs with self-loops
// and duplicate edges, nodes dead before the sweep, empty batches and
// schedules that remove every node. Repeated batch entries reach the engine
// only through RemoveBatches, which TestSweeperRemoveBatchesMatchesAdjList
// drives with them.
func TestSCCSeriesMatchesReference(t *testing.T) {
	exhausted := 0
	f := func(seed uint64, nRaw, mRaw uint16, exhaust bool) bool {
		n := int(nRaw%100) + 1
		r := rand.New(rand.NewPCG(seed, 3))
		edges := randomEdges(n, int(mRaw%400), seed)
		for i := r.IntN(4); i > 0; i-- {
			v := int32(r.IntN(n))
			edges = append(edges, [2]int32{v, v})
		}
		for i := r.IntN(4); i > 0 && len(edges) > 0; i-- {
			edges = append(edges, edges[r.IntN(len(edges))])
		}
		survivors, batches := randomSchedule(r, n, exhaust)
		if len(survivors) == 0 {
			exhausted++
		}
		seriesMatchesRef(t, fromEdges(n, edges), survivors, batches)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if exhausted == 0 {
		t.Fatal("no schedule removed every node")
	}

	// Two shapes the random graphs rarely take. A dense graph whose final
	// state keeps a giant SCC, which the engine contracts to one node: the
	// Twitter baseline's shape.
	r := rand.New(rand.NewPCG(7, 7))
	n := 150
	dense := randomGraph(n, 10*n, 7)
	var survivors []int32
	batches := make([][]int32, 6)
	for i, v := range r.Perm(n) {
		switch {
		case i < 10: // dead before the sweep
		case i < 40:
			batches[i%len(batches)] = append(batches[i%len(batches)], int32(v))
		default:
			survivors = append(survivors, int32(v))
		}
	}
	giant := largestFinalSCC(dense, survivors)
	if giant < n/2 {
		t.Fatalf("dense case: largest final SCC %d, want a giant one", giant)
	}
	if got, want := seriesMatchesRef(t, dense, survivors, batches), n-10-giant+1; got > want {
		t.Fatalf("dense case: %d contracted nodes, want at most %d", got, want)
	}

	// A graph whose cycles all run through nodes the schedule removes, so
	// its final state keeps no SCC of more than one node: the Mastodon
	// graph's shape. Survivors only point up the id order; every doomed
	// node closes cycles from above back down.
	survivors, batches = nil, make([][]int32, 8)
	g := NewBuilder(n)
	for v := 0; v < n; v++ {
		if v%5 != 0 {
			survivors = append(survivors, int32(v))
			for i := 0; i < 4; i++ {
				if w := v + 1 + r.IntN(n); w < n {
					g.AddEdge(int32(v), int32(w))
				}
			}
			continue
		}
		i := r.IntN(len(batches))
		batches[i] = append(batches[i], int32(v))
		for i := 0; i < 4; i++ {
			g.AddEdge(int32(r.IntN(n)), int32(v))
			g.AddEdge(int32(v), int32(r.IntN(n)))
		}
	}
	acyclic := g.Freeze()
	if got := largestFinalSCC(acyclic, survivors); got != 1 {
		t.Fatalf("acyclic case: largest final SCC %d, want 1", got)
	}
	if got := acyclic.StronglyConnectedCount(nil); got > n/2 {
		t.Fatalf("acyclic case: %d SCCs before any removal, want a giant one", got)
	}
	seriesMatchesRef(t, acyclic, survivors, batches)
}
