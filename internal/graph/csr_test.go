package graph

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// residentBytes sums the capacities of every slice the CSR holds, found by
// reflection so that an array added to the struct is counted too.
func residentBytes(c *CSR) (bytes, arrays int) {
	v := reflect.ValueOf(c).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			bytes += f.Cap() * int(f.Type().Elem().Size())
			if f.Cap() > 0 {
				arrays++
			}
		}
	}
	return bytes, arrays
}

var csrSink *CSR

// A CSR keeps each edge once per direction and nothing else: its slices
// hold two offset arrays and two adjacency arrays, 16·(n+1) + 8·E bytes,
// and FromRows allocates the CSR and those slices and nothing more — no
// scratch. Graphs with isolated nodes, self-loops and reciprocal edges, and
// one with no edges at all.
func TestCSRResidentBytes(t *testing.T) {
	graphs := [][][]int32{make([][]int32, 50)}
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, 3))
		n := 1 + r.IntN(300)
		out := make([][]int32, n, n+n/4+1) // the tail stays isolated
		for range r.IntN(4 * n) {
			u, v := int32(r.IntN(n)), int32(r.IntN(n))
			out[u] = append(out[u], v)
			switch r.IntN(8) {
			case 0:
				out[v] = append(out[v], u)
			case 1:
				out[u] = append(out[u], u)
			}
		}
		graphs = append(graphs, out[:cap(out)])
	}
	for _, out := range graphs {
		c := FromRows(out)
		n, e := c.NumNodes(), c.NumEdges()
		bytes, arrays := residentBytes(c)
		if want := 16*(n+1) + 8*e; bytes != want {
			t.Errorf("%d nodes, %d edges: the CSR holds %d bytes, want 16·(n+1) + 8·E = %d", n, e, bytes, want)
		}
		allocs := testing.AllocsPerRun(10, func() { csrSink = FromRows(out) })
		if want := float64(1 + arrays); allocs != want {
			t.Errorf("%d nodes, %d edges: FromRows allocates %g times, want %g (the CSR and its %d slices)", n, e, allocs, want, arrays)
		}
	}
}

// FuzzCSR holds the CSR's rows, degrees, components and both sweeps to the
// references in reference_test.go. The first byte sets the node count
// (1..64), the second the sweep's fraction, the third its rounds (low four
// bits) and options (0x10 adds the SCC axis, 0x20 node weights), and the
// fourth how many edges follow, two bytes each, taken modulo the node
// count, so self-loops and repeats occur. Every later byte below 0xC0 is a
// node of the current removal batch and one at or above it starts the next
// batch. The first batch is also the alive mask's dead set and the nodes
// the iterative sweep finds dead; the seeds are in testdata/fuzz/FuzzCSR.
func FuzzCSR(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 1024 {
			return
		}
		n := int(data[0])%64 + 1
		fraction := float64(int(data[1])%100+1) / 100
		rounds := int(data[2] & 0x0f)
		opt := SweepOptions{WithSCC: data[2]&0x10 != 0}
		if data[2]&0x20 != 0 {
			opt.Weights = make([]float64, n)
			for v := range opt.Weights {
				opt.Weights[v] = float64(v * 7 % 5)
			}
		}
		rest := data[4:]
		out := make([][]int32, n)
		for range data[3] {
			if len(rest) < 2 {
				break
			}
			u, v := int(rest[0])%n, int(rest[1])%n
			out[u] = append(out[u], int32(v))
			rest = rest[2:]
		}
		batches := [][]int32{nil}
		for _, b := range rest {
			if b >= 0xc0 {
				batches = append(batches, nil)
				continue
			}
			batches[len(batches)-1] = append(batches[len(batches)-1], int32(int(b)%n))
		}
		in := make([][]int32, n)
		for u := range out {
			for _, v := range out[u] {
				in[v] = append(in[v], int32(u))
			}
		}

		c := FromRows(out)
		maxDeg := 0
		for v := int32(0); int(v) < n; v++ {
			if !slices.Equal(c.Out(v), out[v]) || !slices.Equal(c.In(v), in[v]) {
				t.Fatalf("node %d: Out %v In %v, want %v and %v", v, c.Out(v), c.In(v), out[v], in[v])
			}
			d := len(out[v]) + len(in[v])
			if c.Degree(v) != d {
				t.Fatalf("Degree(%d) = %d, want %d", v, c.Degree(v), d)
			}
			maxDeg = max(maxDeg, d)
		}
		if c.MaxDegree() != maxDeg {
			t.Fatalf("MaxDegree = %d, want %d", c.MaxDegree(), maxDeg)
		}

		dead := batches[0]
		var alive []bool
		if len(dead) > 0 {
			alive = allAlive(n)
			for _, v := range dead {
				alive[v] = false
			}
		}
		if !sameWCC(c.WeaklyConnected(alive), refWCC(c, alive)) {
			t.Fatalf("WeaklyConnected differs from the BFS reference")
		}
		s := NewSweeper(c)
		removeAll(s, dead)
		if got, want := s.IterativeDegreeRemoval(fraction, rounds, opt), refIterativeDegreeRemoval(c, dead, fraction, rounds, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("IterativeDegreeRemoval(%g, %d):\n got %v\nwant %v", fraction, rounds, got, want)
		}
		if got, want := RemoveBatches(c, batches, opt), refRemoveBatches(c, batches, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("RemoveBatches(%v):\n got %v\nwant %v", batches, got, want)
		}
	})
}

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
// out-row in insertion order and lists In(v) by ascending source with ties
// in row order.
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
			if !slices.Equal(c.Out(v), out[v]) || !slices.Equal(c.In(v), in[v]) {
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

// Property: FromAdjacency on a flattened copy of the rows builds the CSR
// FromRows builds, in-row order included, and keeps the arrays it was
// handed as the out-rows instead of copying them: it allocates only the
// CSR and its in-rows.
func TestFromAdjacencyMatchesFromRows(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw % 120)
		m := int(mRaw % 500)
		out := make([][]int32, n)
		if n > 0 {
			for _, e := range randomEdges(n, m, seed) {
				out[e[0]] = append(out[e[0]], e[1])
			}
		}
		off := make([]int64, n+1)
		var adj []int32
		for u, row := range out {
			adj = append(adj, row...)
			off[u+1] = int64(len(adj))
		}
		want, got := FromRows(out), FromAdjacency(off, adj)
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			return false
		}
		for v := int32(0); int(v) < n; v++ {
			if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
				return false
			}
		}
		if len(adj) > 0 && &got.outAdj[0] != &adj[0] || &got.outOff[0] != &off[0] {
			return false
		}
		arrays := 1 // inOff
		if len(adj) > 0 {
			arrays++ // inAdj
		}
		return testing.AllocsPerRun(5, func() { csrSink = FromAdjacency(off, adj) }) == float64(1+arrays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FromAdjacency refuses offsets that do not run from 0 to the adjacency's
// length, and a target outside the graph.
func TestFromAdjacencyPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  []int64
		adj  []int32
	}{
		{"no offsets", nil, nil},
		{"short", []int64{0, 1}, []int32{0, 0}},
		{"long", []int64{0, 3}, []int32{0, 0}},
		{"nonzero start", []int64{1, 2}, []int32{0, 0}},
		{"target", []int64{0, 1}, []int32{1}},
		{"negative target", []int64{0, 1}, []int32{-1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("FromAdjacency accepted it")
				}
			}()
			FromAdjacency(tc.off, tc.adj)
		})
	}
}

// The *MatchesAdjList properties hold each engine to its reference in
// reference_test.go, which walks the Out/In adjacency rows the obvious
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
