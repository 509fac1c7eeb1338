package graph

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randomMask returns an alive mask (sometimes nil) derived from seed,
// matching the shape used by the seed property tests.
func randomMask(n int, seed uint64) []bool {
	if seed%3 == 0 {
		return nil
	}
	r := rand.New(rand.NewPCG(seed, 1))
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = r.IntN(4) != 0
	}
	return alive
}

// Property: whatever order the edges are added in, Freeze keeps every
// out-row in insertion order, lists In(v) by ascending source with ties in
// row order, and lays Und(v) out as the out-row then the in-row.
func TestCSRFreezePreservesStructure(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%120) + 1
		m := int(mRaw % 500)
		b := NewBuilder(n)
		out := make([][]int32, n)
		for _, e := range randomEdges(n, m, seed) {
			b.AddEdge(e[0], e[1])
			out[e[0]] = append(out[e[0]], e[1])
		}
		in := make([][]int32, n)
		for u := range out {
			for _, v := range out[u] {
				in[v] = append(in[v], int32(u))
			}
		}
		c := b.Freeze()
		if c.NumNodes() != n || c.NumEdges() != m {
			return false
		}
		outDegs := c.OutDegrees()
		for v := int32(0); int(v) < n; v++ {
			if !slices.Equal(c.Out(v), out[v]) || !slices.Equal(c.In(v), in[v]) ||
				!slices.Equal(c.Und(v), append(slices.Clone(out[v]), in[v]...)) {
				return false
			}
			if c.OutDegree(v) != len(out[v]) || c.InDegree(v) != len(in[v]) || c.Degree(v) != len(out[v])+len(in[v]) ||
				outDegs[v] != float64(len(out[v])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The *MatchesAdjList properties hold each engine to its reference in
// reference_test.go, which walks the Out/In/Und adjacency rows the obvious
// way and rebuilds all state at every step.

func TestCSRSCCMatchesAdjList(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, maskSeed uint64) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 500)
		g := randomGraph(n, m, seed)
		alive := randomMask(n, maskSeed)
		return g.StronglyConnectedCount(alive) == refSCC(g, alive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInduceMatchesMap(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, groupsRaw uint8) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 500)
		numGroups := int(groupsRaw%20) + 1
		g := randomGraph(n, m, seed)
		r := rand.New(rand.NewPCG(seed^0xabcdef, 7))
		group := make([]int32, n)
		for i := range group {
			group[i] = int32(r.IntN(numGroups))
		}
		want := refInduce(g, group)
		got := g.Induce(group, numGroups)
		// Equal edge count on top of equal edge sets: no edge is doubled.
		return got.NumNodes() == numGroups && got.NumEdges() == len(want) &&
			reflect.DeepEqual(edgeSet(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomBatches builds removal batches over n nodes, intentionally
// including duplicate and repeated ids to exercise the dedup semantics.
func randomBatches(n int, seed uint64) [][]int32 {
	r := rand.New(rand.NewPCG(seed, 99))
	batches := make([][]int32, r.IntN(8))
	for i := range batches {
		b := make([]int32, r.IntN(4)+1)
		for j := range b {
			b[j] = int32(r.IntN(n))
		}
		batches[i] = b
	}
	return batches
}

// randomWeights returns a node-weight vector (sometimes nil).
func randomWeights(n int, seed uint64) []float64 {
	if seed%2 == 0 {
		return nil
	}
	r := rand.New(rand.NewPCG(seed, 5))
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(r.IntN(50))
	}
	return w
}

func TestSweeperRemoveBatchesMatchesAdjList(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, batchSeed, wSeed uint64) bool {
		n := int(nRaw%120) + 1
		m := int(mRaw % 400)
		g := randomGraph(n, m, seed)
		batches := randomBatches(n, batchSeed)
		opt := SweepOptions{Weights: randomWeights(n, wSeed), WithSCC: wSeed%3 == 0}
		return reflect.DeepEqual(RemoveBatches(g, batches, opt), refRemoveBatches(g, batches, opt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// removeAll kills the nodes of dead that are still alive.
func removeAll(s *Sweeper, dead []int32) {
	for _, v := range dead {
		if s.alive[v] {
			s.kill(v)
		}
	}
}

// The sweep is held to the recount-per-round reference from three starts: a
// fresh Sweeper, one whose graph already lost some nodes (which Removed must
// keep counting), and one continuing straight after its own earlier sweep,
// when deg holds that sweep's leftovers. Fractions up to 1 and up to 12
// rounds drive many sweeps past the last node.
func TestSweeperIterativeMatchesAdjList(t *testing.T) {
	exhausted := 0
	f := func(seed uint64, nRaw, mRaw uint16, fRaw, roundsRaw uint8, wSeed, deadSeed uint64) bool {
		n := int(nRaw%120) + 2
		m := int(mRaw % 400)
		g := randomGraph(n, m, seed)
		fraction := float64(int(fRaw)%100+1) / 100 // 0.01 .. 1.00
		rounds := int(roundsRaw % 13)
		opt := SweepOptions{Weights: randomWeights(n, wSeed), WithSCC: wSeed%3 == 0}
		var dead []int32
		for _, batch := range randomBatches(n, deadSeed) {
			dead = append(dead, batch...)
		}

		s := NewSweeper(g)
		if !reflect.DeepEqual(s.IterativeDegreeRemoval(fraction, rounds, opt), refIterativeDegreeRemoval(g, nil, fraction, rounds, opt)) {
			return false
		}
		if s.Removed() == n {
			exhausted++
		}
		// Continue the same Sweeper: everything it removed is now "dead
		// before the sweep".
		for v, alive := range s.Alive() {
			if !alive {
				dead = append(dead, int32(v))
			}
		}
		removeAll(s, dead)
		want := refIterativeDegreeRemoval(g, dead, fraction, rounds, opt)
		if !reflect.DeepEqual(s.IterativeDegreeRemoval(fraction, rounds, opt), want) {
			return false
		}
		fresh := NewSweeper(g)
		removeAll(fresh, dead)
		return reflect.DeepEqual(fresh.IterativeDegreeRemoval(fraction, rounds, opt), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if exhausted == 0 {
		t.Fatal("no sweep removed every node: the exhaustion path went untested")
	}
}

func TestSweeperResetAndReuse(t *testing.T) {
	s := NewSweeper(star(50))
	first := s.IterativeDegreeRemoval(0.02, 3, SweepOptions{})
	s.Reset()
	second := s.IterativeDegreeRemoval(0.02, 3, SweepOptions{})
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("reused sweeper diverged:\n%v\n%v", first, second)
	}
	if s.Removed() == 0 {
		t.Fatal("expected removals")
	}
	s.Reset()
	if s.Removed() != 0 || !s.Alive()[0] {
		t.Fatal("Reset did not revive the graph")
	}
}

// A sweep's buffers are sized once, whatever the number of rounds: its
// allocation count is the same for 2 rounds as for 20.
func TestSweeperAllocsFlatInRounds(t *testing.T) {
	g := randomGraph(2000, 12000, 42)
	opt := SweepOptions{Weights: randomWeights(2000, 1), WithSCC: true}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() { NewSweeper(g).IterativeDegreeRemoval(0.01, rounds, opt) })
	}
	if few, many := allocs(2), allocs(20); many > few {
		t.Fatalf("allocs per sweep: %g at 20 rounds, %g at 2", many, few)
	}
}

func TestCSREmptyGraph(t *testing.T) {
	c := NewBuilder(0).Freeze()
	res := c.WeaklyConnected(nil)
	if res.NumComponents != 0 || res.LargestSize != 0 || res.LCCFraction() != 0 {
		t.Fatalf("unexpected %+v", res)
	}
	if got := c.StronglyConnectedCount(nil); got != 0 {
		t.Fatalf("SCCs = %d", got)
	}
}
