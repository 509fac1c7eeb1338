package graph

import (
	"cmp"
	"slices"
)

// This file holds the vocabulary of the node-removal resilience sweeps of
// §5.1 — Fig 12 (iteratively removing the top 1% of remaining users by
// degree) and Fig 13 (removing the top-N instances or ASes from the
// federation graph); the engine is in sweeper.go.

// SweepPoint is one measurement along a removal sweep. Fractions are
// relative to the *original* graph, matching the paper's axes ("size of
// largest component" as a share of all users/instances).
type SweepPoint struct {
	Removed       int     // cumulative nodes removed so far
	LCCFrac       float64 // largest-component size / original node count
	LCCWeightFrac float64 // largest-component weight / original total weight (0 if no weights)
	Components    int     // number of weakly connected components among alive nodes
	SCCs          int     // number of strongly connected components; -1 if not computed
}

// SweepOptions configures a removal sweep.
type SweepOptions struct {
	// Weights optionally assigns a weight to each node (e.g. users hosted on
	// an instance); the sweep then also reports the LCC's weight share.
	Weights []float64
	// WithSCC additionally counts strongly connected components at every
	// point (the Y2 axis of Fig 12), decrementally (scc.go).
	WithSCC bool
}

// RankDescending returns node ids 0..n-1 sorted by descending score, ties
// broken by ascending id. It is used to rank instances by hosted users,
// toots, or connections before a RemoveBatches sweep.
func RankDescending(scores []float64) []int32 {
	order := make([]int32, len(scores))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, byRank(scores))
	return order
}

// byRank orders node ids by descending score, ties by ascending id.
func byRank(scores []float64) func(a, b int32) int {
	return func(a, b int32) int {
		switch sa, sb := scores[a], scores[b]; {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return cmp.Compare(a, b)
	}
}

// TopK returns RankDescending(scores)[:k] (all of it when k ≥ len(scores))
// without ranking the rest: a heap holds the k best ids seen so far, the
// one ranked last at its root, and only those k are sorted. Scores must not
// be NaN.
func TopK(scores []float64, k int) []int32 {
	k = max(0, min(k, len(scores)))
	rank := byRank(scores)
	h := make([]int32, k)
	for i := range h {
		h[i] = int32(i)
	}
	// down restores the heap below j: every parent ranks after its children.
	down := func(j int) {
		for {
			c := 2*j + 1
			if c >= k {
				return
			}
			if c+1 < k && rank(h[c+1], h[c]) > 0 {
				c++
			}
			if rank(h[j], h[c]) > 0 {
				return
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	for j := k/2 - 1; j >= 0; j-- {
		down(j)
	}
	for i := k; k > 0 && i < len(scores); i++ {
		if rank(int32(i), h[0]) < 0 {
			h[0] = int32(i)
			down(0)
		}
	}
	slices.SortFunc(h, rank)
	return h
}

// SingletonBatches converts a ranked node list into size-1 batches for
// RemoveBatches, taking only the first n entries (or all if n < 0).
func SingletonBatches(order []int32, n int) [][]int32 {
	if n < 0 || n > len(order) {
		n = len(order)
	}
	batches := make([][]int32, n)
	for i := 0; i < n; i++ {
		batches[i] = []int32{order[i]}
	}
	return batches
}
