// Resilience reproduces §5.1's node-removal experiments directly against
// the graph API: the Fig 12 social-graph collapse (Mastodon vs a
// Twitter-shaped baseline) and the Fig 13 federation-graph sweeps by
// instances and by ASes.
//
//	go run ./examples/resilience
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/twitter"
)

func main() {
	world, err := core.BuildWorld(core.ScaleSmall, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d users, %d follows, %d instances\n",
		len(world.Users), world.Social.NumEdges(), len(world.Instances))

	// Fig 12: iteratively remove the top 1% of remaining accounts.
	tw := twitter.Graph(twitter.DefaultGraphConfig(7, 20000))
	fmt.Println("\nFig 12 — removing the top 1% of accounts per round:")
	fmt.Println("round  Mastodon-LCC  Twitter-LCC")
	m := graph.NewSweeper(world.Social).IterativeDegreeRemoval(0.01, 10, graph.SweepOptions{})
	t := graph.NewSweeper(tw).IterativeDegreeRemoval(0.01, 10, graph.SweepOptions{})
	for i := 0; i <= 10; i++ {
		fmt.Printf("%5d  %12.3f  %11.3f\n", i, m[i].LCCFrac, t[i].LCCFrac)
	}
	fmt.Printf("→ paper: Mastodon 99.95%% → 26.38%% after one round; Twitter keeps ≈80%% after ten\n")

	// Fig 13(a): remove top instances from the federation graph.
	fmt.Println("\nFig 13(a) — removing top instances (by users) from GF:")
	series := analysis.Fig13aInstanceRemoval(world, len(world.Instances)/5)
	for _, s := range series {
		pts := s.Points
		fmt.Printf("%-16s LCC: %.3f → %.3f after %d removals (components %d → %d)\n",
			s.Label, pts[0].LCCFrac, pts[len(pts)-1].LCCFrac, pts[len(pts)-1].Removed,
			pts[0].Components, pts[len(pts)-1].Components)
	}

	// Fig 13(b): remove top ASes.
	fmt.Println("\nFig 13(b) — removing top ASes from GF:")
	for _, s := range analysis.Fig13bASRemoval(world, 10) {
		pts := s.Points
		fmt.Printf("%-20s user coverage of LCC: %.1f%% → %.1f%% after 5 ASes\n",
			s.Label, 100*pts[0].LCCWeightFrac, 100*pts[5].LCCWeightFrac)
	}
	fmt.Printf("→ paper: removing 5 ASes cuts the LCC's user coverage roughly in half\n")
}
