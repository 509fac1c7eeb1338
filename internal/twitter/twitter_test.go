package twitter

import (
	"testing"

	"repro/internal/graph"
)

func TestGraphDeterminism(t *testing.T) {
	g1 := Graph(DefaultGraphConfig(1, 2000))
	g2 := Graph(DefaultGraphConfig(1, 2000))
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed, different graphs")
	}
	g3 := Graph(DefaultGraphConfig(2, 2000))
	if g3.NumEdges() == g1.NumEdges() {
		t.Fatal("different seeds should differ (overwhelmingly likely)")
	}
}

func TestGraphShape(t *testing.T) {
	n := 5000
	g := Graph(DefaultGraphConfig(1, n))
	mean := float64(g.NumEdges()) / float64(n)
	if mean < 8 || mean > 18 {
		t.Fatalf("mean out-degree = %.1f, want ≈12", mean)
	}
	for v := 0; v < n; v++ {
		if g.OutDegree(int32(v)) < 1 {
			t.Fatalf("user %d follows nobody; Twitter baseline has a floor", v)
		}
	}
	wcc := g.WeaklyConnected(nil)
	if wcc.LCCFraction() < 0.95 {
		t.Fatalf("baseline LCC = %.3f, want ≥0.95 (paper: Twitter 2011 LCC 95%%)", wcc.LCCFraction())
	}
}

func TestGraphRobustness(t *testing.T) {
	// The defining property vs Mastodon (Fig 12): after removing the top
	// 10% of accounts (10 rounds of 1%), ≈80% of users stay connected.
	g := Graph(DefaultGraphConfig(1, 8000))
	pts := graph.NewSweeper(g).IterativeDegreeRemoval(0.01, 10, graph.SweepOptions{})
	if pts[10].LCCFrac < 0.65 {
		t.Fatalf("Twitter LCC after 10 rounds = %.3f, want ≥0.65 (paper: 80%%)", pts[10].LCCFrac)
	}
}

func TestGraphTiny(t *testing.T) {
	if g := Graph(DefaultGraphConfig(1, 1)); g.NumEdges() != 0 {
		t.Fatal("single-user graph must be empty")
	}
	if g := Graph(DefaultGraphConfig(1, 0)); g.NumNodes() != 0 {
		t.Fatal("empty graph expected")
	}
}

func TestUptime(t *testing.T) {
	cfg := DefaultUptimeConfig(1, 100)
	tr := Uptime(cfg)
	if tr.N() != 100*288 {
		t.Fatalf("slots = %d", tr.N())
	}
	down := tr.DownFraction(0, tr.N())
	if down < 0.008 || down > 0.018 {
		t.Fatalf("downtime = %.4f, want ≈0.0125", down)
	}
	// Deterministic.
	tr2 := Uptime(cfg)
	if string(tr.AppendBinary(nil)) != string(tr2.AppendBinary(nil)) {
		t.Fatal("same seed, different traces")
	}
}

func TestDailyDowntime(t *testing.T) {
	cfg := DefaultUptimeConfig(1, 50)
	daily := DailyDowntime(Uptime(cfg), cfg.SlotsPerDay)
	if len(daily) != 50 {
		t.Fatalf("days = %d", len(daily))
	}
	var sum float64
	for _, d := range daily {
		if d < 0 || d > 1 {
			t.Fatalf("daily fraction %g out of range", d)
		}
		sum += d
	}
	if mean := sum / 50; mean < 0.005 || mean > 0.02 {
		t.Fatalf("mean daily downtime = %.4f", mean)
	}
}
