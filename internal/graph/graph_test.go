package graph

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddEdgeAndDegrees(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Freeze()
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes/edges = %d/%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Fatalf("node 0 degrees: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(2) != 0 || g.InDegree(2) != 2 {
		t.Fatalf("node 2 degrees: out=%d in=%d", g.OutDegree(2), g.InDegree(2))
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	g := NewBuilder(2)
	for _, e := range [][2]int32{{0, 2}, {2, 0}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for edge %v", e)
				}
			}()
			g.AddEdge(e[0], e[1])
		}()
	}
}

func TestOutInDegrees(t *testing.T) {
	g := fromEdges(3, [][2]int32{{0, 1}, {0, 2}})
	out := g.OutDegrees()
	if out[0] != 2 || out[1] != 0 || g.InDegree(1) != 1 || g.InDegree(0) != 0 {
		t.Fatalf("degrees out=%v in=%d,%d", out, g.InDegree(0), g.InDegree(1))
	}
}

func TestInduce(t *testing.T) {
	// Users 0,1 on instance 0; users 2,3 on instance 1; user 4 on instance 2.
	g := fromEdges(5, [][2]int32{
		{0, 1}, // intra-instance: must vanish
		{0, 2}, // inst 0 -> 1
		{1, 3}, // inst 0 -> 1 (duplicate after induction)
		{3, 4}, // inst 1 -> 2
		{4, 0}, // inst 2 -> 0
	})
	group := []int32{0, 0, 1, 1, 2}
	q := g.Induce(group, 3)
	if q.NumNodes() != 3 {
		t.Fatalf("induced nodes = %d", q.NumNodes())
	}
	if q.NumEdges() != 3 {
		t.Fatalf("induced edges = %d, want 3 (dedup + drop intra)", q.NumEdges())
	}
	want := map[[2]int32]bool{{0, 1}: true, {1, 2}: true, {2, 0}: true}
	if got := edgeSet(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("induced edges = %v, want %v (direction preserved)", got, want)
	}
}

func TestInducePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).Freeze().Induce([]int32{0}, 1)
}

// fromEdges freezes the given edge list over n nodes.
func fromEdges(n int, edges [][2]int32) *CSR {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Freeze()
}

// edgeSet flattens a graph into its set of (from,to) pairs.
func edgeSet(c *CSR) map[[2]int32]bool {
	set := make(map[[2]int32]bool)
	for v := int32(0); int(v) < c.NumNodes(); v++ {
		for _, w := range c.Out(v) {
			set[[2]int32{v, w}] = true
		}
	}
	return set
}

// randomEdges draws m pseudo-random edges over n nodes, in random source
// order, for property tests.
func randomEdges(n, m int, seed uint64) [][2]int32 {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(r.IntN(n)), int32(r.IntN(n))}
	}
	return edges
}

// randomGraph builds a pseudo-random directed graph for property tests.
func randomGraph(n, m int, seed uint64) *CSR {
	return fromEdges(n, randomEdges(n, m, seed))
}

// Property: the union-find WCC and the reference queue BFS agree on random
// graphs and masks — same counts, same partition of the alive nodes, and
// the same largest component even when sizes tie.
func TestWCCUnionFindMatchesBFS(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, maskSeed uint64) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 600)
		g := randomGraph(n, m, seed)
		alive := randomMask(n, maskSeed)
		got, want := g.WeaklyConnected(alive), refWCC(g, alive)
		if got.NumComponents != want.NumComponents || got.LargestSize != want.LargestSize ||
			got.AliveNodes != want.AliveNodes {
			return false
		}
		// Root labels differ between the engines, so relabel each union-find
		// root by its component's smallest member — what the BFS's roots
		// already are — before comparing the partitions.
		smallest := make(map[int32]int32)
		for v, r := range got.roots {
			if r >= 0 {
				if _, ok := smallest[r]; !ok {
					smallest[r] = int32(v)
				}
				r = smallest[r]
			}
			if r != want.roots[v] || got.InLargest(int32(v)) != want.InLargest(int32(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWCCKnownGraph(t *testing.T) {
	// Two components: {0,1,2} (path) and {3,4} (edge); 5 isolated.
	g := fromEdges(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	res := g.WeaklyConnected(nil)
	if res.NumComponents != 3 {
		t.Fatalf("components = %d, want 3", res.NumComponents)
	}
	if res.LargestSize != 3 {
		t.Fatalf("largest = %d, want 3", res.LargestSize)
	}
	if res.LCCFraction() != 0.5 {
		t.Fatalf("LCC fraction = %g, want 0.5", res.LCCFraction())
	}
	for _, v := range []int32{0, 1, 2} {
		if !res.InLargest(v) {
			t.Fatalf("node %d should be in LCC", v)
		}
	}
	for _, v := range []int32{3, 4, 5} {
		if res.InLargest(v) {
			t.Fatalf("node %d should not be in LCC", v)
		}
	}
}

func TestWCCWithMask(t *testing.T) {
	// Path 0-1-2-3; killing node 1 splits it.
	g := fromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	alive := []bool{true, false, true, true}
	res := g.WeaklyConnected(alive)
	if res.AliveNodes != 3 || res.NumComponents != 2 || res.LargestSize != 2 {
		t.Fatalf("unexpected %+v", res)
	}
	if res.InLargest(1) {
		t.Fatal("dead node cannot be in LCC")
	}
}

func TestWCCEmpty(t *testing.T) {
	res := NewBuilder(0).Freeze().WeaklyConnected(nil)
	if res.NumComponents != 0 || res.LCCFraction() != 0 {
		t.Fatalf("unexpected %+v", res)
	}
	if res.InLargest(0) {
		t.Fatal("InLargest out of range should be false")
	}
}

func TestSCCKnownGraphs(t *testing.T) {
	// A 3-cycle is one SCC.
	cyc := fromEdges(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	if n := cyc.StronglyConnectedCount(nil); n != 1 {
		t.Fatalf("cycle SCCs = %d, want 1", n)
	}
	// A DAG has one SCC per node.
	dag := fromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if n := dag.StronglyConnectedCount(nil); n != 4 {
		t.Fatalf("DAG SCCs = %d, want 4", n)
	}
	// Two 2-cycles joined by a one-way bridge: 2 SCCs.
	two := fromEdges(4, [][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}})
	if n := two.StronglyConnectedCount(nil); n != 2 {
		t.Fatalf("SCCs = %d, want 2", n)
	}
}

func TestSCCWithMask(t *testing.T) {
	// Cycle 0->1->2->0 with node 2 dead becomes a 2-node path: 2 SCCs.
	g := fromEdges(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	alive := []bool{true, true, false}
	if n := g.StronglyConnectedCount(alive); n != 2 {
		t.Fatalf("SCCs = %d, want 2", n)
	}
}

// Property: #SCC is between #WCC and the number of alive nodes.
func TestSCCBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 500)
		g := randomGraph(n, m, seed)
		wcc := g.WeaklyConnected(nil)
		scc := g.StronglyConnectedCount(nil)
		return scc >= wcc.NumComponents && scc <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: SCC count on a deep path does not overflow any stack
// (regression guard for the iterative Tarjan).
func TestSCCDeepPath(t *testing.T) {
	n := 200000
	g := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(int32(i), int32(i+1))
	}
	if got := g.Freeze().StronglyConnectedCount(nil); got != n {
		t.Fatalf("SCCs = %d, want %d", got, n)
	}
}

// Property: FromRows on out-rows and a Builder fed the same rows — source by
// source, or with the sources visited in any other order — freeze to the
// same CSR.
func TestFromRowsMatchesAddEdge(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 500)
		rows := make([][]int32, n)
		for _, e := range randomEdges(n, m, seed) {
			rows[e[0]] = append(rows[e[0]], e[1])
		}
		want := FromRows(rows)
		shuffled := rand.New(rand.NewPCG(seed, 11)).Perm(n)
		for _, sources := range [][]int{slices.Sorted(slices.Values(shuffled)), shuffled} {
			b := NewBuilder(n)
			for _, u := range sources {
				for _, v := range rows[u] {
					b.AddEdge(int32(u), v)
				}
			}
			if !reflect.DeepEqual(b.Freeze(), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromRowsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromRows accepted an out-of-range target")
		}
	}()
	FromRows([][]int32{{5}})
}
