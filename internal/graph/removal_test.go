package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// star returns a hub-and-spoke graph: node 0 follows everyone.
func star(n int) *CSR {
	g := NewBuilder(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, int32(i))
	}
	return g.Freeze()
}

func TestRemoveBatchesBaseline(t *testing.T) {
	g := star(10)
	pts := RemoveBatches(g, nil, SweepOptions{})
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	if pts[0].Removed != 0 || pts[0].LCCFrac != 1 || pts[0].Components != 1 {
		t.Fatalf("baseline point %+v", pts[0])
	}
	if pts[0].SCCs != -1 {
		t.Fatal("SCCs should be -1 when not requested")
	}
}

func TestRemoveBatchesHubShatter(t *testing.T) {
	g := star(10)
	pts := RemoveBatches(g, [][]int32{{0}}, SweepOptions{})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	after := pts[1]
	if after.Removed != 1 {
		t.Fatalf("removed = %d", after.Removed)
	}
	// 9 isolated spokes remain.
	if after.Components != 9 {
		t.Fatalf("components = %d, want 9", after.Components)
	}
	if after.LCCFrac != 0.1 { // 1 node out of the original 10
		t.Fatalf("LCCFrac = %g, want 0.1", after.LCCFrac)
	}
}

func TestRemoveBatchesDeduplicates(t *testing.T) {
	g := star(5)
	pts := RemoveBatches(g, [][]int32{{1, 1}, {1, 2}}, SweepOptions{})
	if pts[1].Removed != 1 || pts[2].Removed != 2 {
		t.Fatalf("removed counts %d,%d; want 1,2", pts[1].Removed, pts[2].Removed)
	}
}

func TestRemoveBatchesWeights(t *testing.T) {
	// Two components: {0,1} with weight 10, {2,3} with weight 100.
	g := fromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	w := []float64{5, 5, 50, 50}
	pts := RemoveBatches(g, [][]int32{{2}}, SweepOptions{Weights: w})
	// Before removal both components have 2 nodes; ties by root id mean
	// either may be "largest", but weight share must match the chosen one.
	base := pts[0]
	if base.LCCWeightFrac != 10.0/110 && base.LCCWeightFrac != 100.0/110 {
		t.Fatalf("weight frac = %g", base.LCCWeightFrac)
	}
	// After killing node 2, {0,1} is the unique largest: weight 10/110.
	after := pts[1]
	if after.LCCWeightFrac != 10.0/110 {
		t.Fatalf("weight frac after = %g", after.LCCWeightFrac)
	}
}

func TestRemoveBatchesWithSCC(t *testing.T) {
	g := fromEdges(3, [][2]int32{{0, 1}, {1, 0}, {1, 2}})
	pts := RemoveBatches(g, [][]int32{{0}}, SweepOptions{WithSCC: true})
	if pts[0].SCCs != 2 { // {0,1} and {2}
		t.Fatalf("baseline SCCs = %d, want 2", pts[0].SCCs)
	}
	if pts[1].SCCs != 2 { // {1} and {2}
		t.Fatalf("after SCCs = %d, want 2", pts[1].SCCs)
	}
}

func TestIterativeDegreeRemovalStar(t *testing.T) {
	g := star(100)
	pts := NewSweeper(g).IterativeDegreeRemoval(0.01, 1, SweepOptions{})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Round 1 removes 1 node (1% of 100): the hub. Graph shatters.
	if pts[1].Removed != 1 {
		t.Fatalf("removed = %d, want 1", pts[1].Removed)
	}
	if pts[1].Components != 99 {
		t.Fatalf("components = %d, want 99", pts[1].Components)
	}
}

func TestIterativeDegreeRemovalExhausts(t *testing.T) {
	g := star(10)
	pts := NewSweeper(g).IterativeDegreeRemoval(0.5, 100, SweepOptions{})
	last := pts[len(pts)-1]
	if last.Removed != 10 {
		t.Fatalf("final removed = %d, want all 10", last.Removed)
	}
	if last.LCCFrac != 0 || last.Components != 0 {
		t.Fatalf("final point %+v", last)
	}
}

func TestIterativeDegreeRemovalPanics(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for fraction %g", f)
				}
			}()
			NewSweeper(star(3)).IterativeDegreeRemoval(f, 1, SweepOptions{})
		}()
	}
}

func TestRankDescending(t *testing.T) {
	order := RankDescending([]float64{3, 10, 10, 1})
	// 10s tie: lower id (1) first.
	want := []int32{1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TopK is RankDescending's prefix: scores drawn from a few values, so most
// ties fall to the id, at k = 0, 1, n/5, n and past n.
func TestTopKMatchesRankDescending(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 1))
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, distinct := range []int{1, 3, n + 1} {
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = float64(r.IntN(distinct))
			}
			ranked := RankDescending(scores)
			for _, k := range []int{0, 1, n / 5, n, n + 3} {
				want := ranked[:min(k, n)]
				if got := TopK(scores, k); !slices.Equal(got, want) {
					t.Fatalf("n=%d, %d distinct scores, k=%d: TopK = %v, want %v", n, distinct, k, got, want)
				}
			}
		}
	}
}

func TestSingletonBatches(t *testing.T) {
	order := []int32{5, 3, 1}
	b := SingletonBatches(order, 2)
	if len(b) != 2 || b[0][0] != 5 || b[1][0] != 3 {
		t.Fatalf("batches = %v", b)
	}
	if got := SingletonBatches(order, -1); len(got) != 3 {
		t.Fatalf("n<0 should take all, got %d", len(got))
	}
	if got := SingletonBatches(order, 99); len(got) != 3 {
		t.Fatalf("n>len should clamp, got %d", len(got))
	}
}

// Property: along any removal sweep, LCC fraction never increases once
// nodes only get removed, and Removed is non-decreasing.
func TestSweepMonotoneProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, kRaw uint8) bool {
		n := int(nRaw%100) + 2
		m := int(mRaw % 300)
		g := randomGraph(n, m, seed)
		k := int(kRaw)%n + 1
		order := refTopBy(g, k, nil, g.Degree)
		pts := RemoveBatches(g, SingletonBatches(order, -1), SweepOptions{})
		for i := 1; i < len(pts); i++ {
			if pts[i].Removed < pts[i-1].Removed {
				return false
			}
			if pts[i].LCCFrac > pts[i-1].LCCFrac+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
