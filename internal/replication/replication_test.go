package replication

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// microWorld builds a hand-checkable world:
//
//	instance 0: user 0 (10 toots), user 1 (0 toots)
//	instance 1: user 2 (30 toots)
//	instance 2: user 3 (60 toots)
//	follows: 2→0 (inst1 follows inst0), 3→0, 0→3
//
// So user 0's toots replicate (S-Rep) onto instances 1 and 2; user 3's onto
// instance 0; user 2's toots have no followers → no replicas.
func microWorld() *dataset.World {
	g := graph.FromRows([][]int32{{3}, nil, {0}, {0}})
	return &dataset.World{
		Days: 1,
		Instances: []dataset.Instance{
			{ID: 0, Users: 2, Toots: 10},
			{ID: 1, Users: 1, Toots: 30},
			{ID: 2, Users: 1, Toots: 60},
		},
		Users: []dataset.User{
			{ID: 0, Instance: 0, Toots: 10},
			{ID: 1, Instance: 0, Toots: 0},
			{ID: 2, Instance: 1, Toots: 30},
			{ID: 3, Instance: 2, Toots: 60},
		},
		Social: g,
	}
}

func TestNoRep(t *testing.T) {
	exp := New(microWorld())
	down := make([]bool, 3)
	if got := exp.Availability(NoRep{}, down); got != 100 {
		t.Fatalf("intact availability = %g", got)
	}
	down[2] = true // lose instance 2 → user 3's 60 toots gone
	if got := exp.Availability(NoRep{}, down); got != 40 {
		t.Fatalf("availability = %g, want 40", got)
	}
	down[0] = true // also lose instance 0 → user 0's 10 toots gone
	if got := exp.Availability(NoRep{}, down); got != 30 {
		t.Fatalf("availability = %g, want 30", got)
	}
}

func TestSubRep(t *testing.T) {
	exp := New(microWorld())
	down := make([]bool, 3)
	down[0] = true
	// User 0's toots survive via replicas on instances 1 and 2.
	if got := exp.Availability(SubRep{}, down); got != 100 {
		t.Fatalf("availability = %g, want 100", got)
	}
	down[1] = true
	// Still alive via instance 2; user 2's toots (30) die with instance 1
	// because nobody follows user 2.
	if got := exp.Availability(SubRep{}, down); got != 70 {
		t.Fatalf("availability = %g, want 70", got)
	}
	down[2] = true
	if got := exp.Availability(SubRep{}, down); got != 0 {
		t.Fatalf("availability = %g, want 0", got)
	}
}

func TestSubRepBeatsNoRep(t *testing.T) {
	exp := New(microWorld())
	// Any single-instance failure: S-Rep ≥ No-Rep.
	for i := 0; i < 3; i++ {
		down := make([]bool, 3)
		down[i] = true
		if s, n := exp.Availability(SubRep{}, down), exp.Availability(NoRep{}, down); s < n {
			t.Fatalf("S-Rep (%g) worse than No-Rep (%g) for failure of %d", s, n, i)
		}
	}
}

func TestRandRepExact(t *testing.T) {
	exp := New(microWorld())
	down := []bool{true, false, false}
	// User 0 home down. n=1: replica lands on a random distinct instance;
	// P(replica down) = 1/3 → expect 10·(2/3) of user 0's toots.
	got := exp.Availability(RandRep{N: 1, Exact: true}, down)
	want := 100 * (10*(2.0/3) + 30 + 60) / 100.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("availability = %g, want %g", got, want)
	}
	// n=2: P(both replicas down) = (1/3)(0/2) = 0 → everything survives.
	got = exp.Availability(RandRep{N: 2, Exact: true}, down)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("availability = %g, want 100", got)
	}
}

func TestRandRepMonteCarloConverges(t *testing.T) {
	exp := New(microWorld())
	down := []bool{true, false, false}
	exact := exp.Availability(RandRep{N: 1, Exact: true}, down)
	mc := exp.Availability(RandRep{N: 1, Samples: 2000, Seed: 9}, down)
	if math.Abs(exact-mc) > 5 {
		t.Fatalf("Monte-Carlo %g too far from exact %g", mc, exact)
	}
}

func TestAvailabilityPanicsOnBadMask(t *testing.T) {
	exp := New(microWorld())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	exp.Availability(NoRep{}, make([]bool, 2))
}

func TestReplicaStats(t *testing.T) {
	exp := New(microWorld())
	none, many := exp.ReplicaStats()
	// User 2's 30 toots have no replicas; total 100 toots.
	if math.Abs(none-0.30) > 1e-9 {
		t.Fatalf("noReplica = %g, want 0.30", none)
	}
	if many != 0 {
		t.Fatalf("over10 = %g, want 0", many)
	}
}

func TestSweep(t *testing.T) {
	exp := New(microWorld())
	series := exp.Sweep(NoRep{}, [][]int32{{2}, {0}})
	want := []float64{100, 40, 30}
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	for i := range want {
		if math.Abs(series[i]-want[i]) > 1e-9 {
			t.Fatalf("series = %v, want %v", series, want)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	if (NoRep{}).Name() != "No-Rep" || (SubRep{}).Name() != "S-Rep" {
		t.Fatal("names wrong")
	}
	if (RandRep{N: 3}).Name() != "R-Rep(n=3)" {
		t.Fatalf("name = %s", RandRep{N: 3}.Name())
	}
}

var (
	worldOnce sync.Once
	genWorld  *dataset.World
	genExp    *Experiment
)

func sharedWorld(t *testing.T) (*dataset.World, *Experiment) {
	t.Helper()
	worldOnce.Do(func() {
		genWorld = gen.Generate(gen.TinyConfig(3))
		genExp = New(genWorld)
	})
	return genWorld, genExp
}

// The §5.2 headline shapes on a generated world.
func TestPaperShapeOnGeneratedWorld(t *testing.T) {
	w, exp := sharedWorld(t)
	order := graph.RankDescending(w.InstanceTootWeights())
	batches := graph.SingletonBatches(order, 10)

	noRep := exp.Sweep(NoRep{}, batches)
	subRep := exp.Sweep(SubRep{}, batches)
	rand1 := exp.Sweep(RandRep{N: 1, Exact: true}, batches)

	// Removing the top-10 instances by toots destroys most toots without
	// replication (§5.2: 62.69%), but S-Rep keeps ≈98%.
	if noRep[10] > 60 {
		t.Fatalf("No-Rep availability after top-10 removal = %.1f, want <60", noRep[10])
	}
	// The paper reports 97.9% at full scale; at this tiny scale (10 removed
	// instances = 5% of the world) follower sets are thinner, so the bound
	// is looser — the full-scale shape is asserted in internal/analysis.
	if subRep[10] < 72 {
		t.Fatalf("S-Rep availability after top-10 removal = %.1f, want ≥72", subRep[10])
	}
	// Random replication with n=1 beats subscription replication (Fig 16).
	if rand1[10] < subRep[10]-1 {
		t.Fatalf("R-Rep(1) = %.1f should be ≥ S-Rep = %.1f", rand1[10], subRep[10])
	}
	// Monotonicity: availability never rises as more instances die.
	for i := 1; i < len(noRep); i++ {
		if noRep[i] > noRep[i-1]+1e-9 || subRep[i] > subRep[i-1]+1e-9 || rand1[i] > rand1[i-1]+1e-9 {
			t.Fatal("availability increased while removing instances")
		}
	}
}

func TestRandRepMoreReplicasBetter(t *testing.T) {
	_, exp := sharedWorld(t)
	w, _ := sharedWorld(t)
	order := graph.RankDescending(w.InstanceTootWeights())
	batches := graph.SingletonBatches(order, 25)
	prev := exp.Sweep(RandRep{N: 1, Exact: true}, batches)
	for _, n := range []int{2, 3, 4} {
		cur := exp.Sweep(RandRep{N: n, Exact: true}, batches)
		for i := range cur {
			if cur[i] < prev[i]-1e-9 {
				t.Fatalf("n=%d worse than n=%d at point %d (%.2f < %.2f)", n, n-1, i, cur[i], prev[i])
			}
		}
		prev = cur
	}
}

// Property: availability is always within [0, 100] for random masks.
func TestAvailabilityBoundsProperty(t *testing.T) {
	_, exp := sharedWorld(t)
	n := len(genWorld.Instances)
	f := func(seed uint64, bits uint8) bool {
		r := seed
		down := make([]bool, n)
		for i := range down {
			r = r*6364136223846793005 + 1442695040888963407
			down[i] = r>>(40+bits%16)&1 == 1
		}
		for _, s := range []Strategy{NoRep{}, SubRep{}, RandRep{N: 2, Exact: true}} {
			a := exp.Availability(s, down)
			if a < 0 || a > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
