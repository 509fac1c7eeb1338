package graph_test

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/twitter"
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

// The Fig 12 sweep, twenty rounds of the top 1% by degree, over the social
// graph and over the Twitter baseline of the same size: the final state of
// the first keeps no giant SCC, that of the second keeps one.
func BenchmarkIterativeDegreeRemoval(b *testing.B) {
	w := smallWorld()
	tw := twitter.Graph(twitter.DefaultGraphConfig(1, len(w.Users)))
	for _, bc := range []struct {
		name string
		g    *graph.CSR
		opt  graph.SweepOptions
	}{
		{"social/scc=false", w.Social, graph.SweepOptions{}},
		{"social/scc=true", w.Social, graph.SweepOptions{WithSCC: true}},
		{"twitter/scc=true", tw, graph.SweepOptions{WithSCC: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				graph.NewSweeper(bc.g).IterativeDegreeRemoval(0.01, 20, bc.opt)
			}
		})
	}
}

// The Fig 13a sweep, the top 100 instances removed one at a time, with and
// without the SCC axis.
func BenchmarkRemoveBatches(b *testing.B) {
	w := smallWorld()
	weights := w.InstanceUserWeights()
	batches := graph.SingletonBatches(graph.RankDescending(weights), 100)
	for _, bc := range []struct {
		name string
		opt  graph.SweepOptions
	}{
		{"scc=false", graph.SweepOptions{Weights: weights}},
		{"scc=true", graph.SweepOptions{Weights: weights, WithSCC: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				graph.RemoveBatches(w.Federation, batches, bc.opt)
			}
		})
	}
}
