package graph_test

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The kernels behind Figs 12 and 13, over the graphs they run on: the
// calibrated small world's social graph (40K users) and the federation
// graph induced from it (1K instances). The baselines each kernel replaced
// are in DESIGN.md's Settled ablations.

var smallWorld = sync.OnceValue(func() *dataset.World { return gen.Generate(gen.SmallConfig(1)) })

func BenchmarkWeaklyConnected(b *testing.B) {
	w := smallWorld()
	b.ReportAllocs()
	for b.Loop() {
		w.Social.WeaklyConnected(nil)
	}
}

func BenchmarkInduce(b *testing.B) {
	w := smallWorld()
	group := w.UserInstance()
	b.ReportAllocs()
	for b.Loop() {
		w.Social.Induce(group, len(w.Instances))
	}
}

// The Fig 12 sweep: five rounds, the top 1% by degree removed in each.
func BenchmarkIterativeDegreeRemoval(b *testing.B) {
	w := smallWorld()
	for _, bc := range []struct {
		name string
		opt  graph.SweepOptions
	}{{"scc=false", graph.SweepOptions{}}, {"scc=true", graph.SweepOptions{WithSCC: true}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				graph.NewSweeper(w.Social).IterativeDegreeRemoval(0.01, 5, bc.opt)
			}
		})
	}
}

// The Fig 13a sweep, the top 100 instances removed one at a time: the
// reverse-incremental engine RemoveBatches picks without SCC tracking, the
// forward per-point Sweeper, and the sharded per-point sweep SCC tracking
// forces.
func BenchmarkRemoveBatches(b *testing.B) {
	w := smallWorld()
	weights := w.InstanceUserWeights()
	batches := graph.SingletonBatches(graph.RankDescending(weights), 100)
	opt := graph.SweepOptions{Weights: weights}
	scc := graph.SweepOptions{Weights: weights, WithSCC: true}
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"reverse", func() { graph.RemoveBatches(w.Federation, batches, opt) }},
		{"forward", func() { graph.NewSweeper(w.Federation).RemoveBatches(batches, opt) }},
		{"scc/workers=1", func() { graph.RemoveBatchesParallel(w.Federation, batches, scc, 1) }},
		{"scc/workers=N", func() { graph.RemoveBatchesParallel(w.Federation, batches, scc, 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.run()
			}
		})
	}
}
