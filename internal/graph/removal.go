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
	slices.SortFunc(order, func(a, b int32) int {
		switch sa, sb := scores[a], scores[b]; {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return order
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
