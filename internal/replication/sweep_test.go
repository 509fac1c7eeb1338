package replication

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// sweepStrategies is one of every evaluation path: the three fixed
// placements, the closed form, and both sampled strategies with the report's
// two weightings.
func sweepStrategies(w *dataset.World, seed uint64) []Strategy {
	users := w.InstanceUserWeights()
	return []Strategy{
		NoRep{},
		SubRep{},
		NewDHTRep(w, dhtWorldRing(w, 3)),
		RandRep{N: 2, Exact: true},
		RandRep{N: 9, Exact: true},
		RandRep{N: 2, Samples: 16, Seed: seed},
		RandRep{N: 4, Samples: 5, Seed: seed + 1},
		NewWeightedRep(2, users, 12, seed, "capacity"),
		NewWeightedRep(2, inverseWeights(users), 12, seed, "inverse"),
	}
}

// inverseWeights is ext-capacity's ∝ 1/capacity weighting.
func inverseWeights(users []float64) []float64 {
	inv := make([]float64, len(users))
	for i, u := range users {
		inv[i] = 1 / (u + 1)
	}
	return inv
}

// sweepBatches builds the four batch shapes the sweep must handle.
func sweepBatches(w *dataset.World) map[string][][]int32 {
	order := graph.RankDescending(w.InstanceTootWeights())
	n := min(len(order), 40)

	type as struct {
		asn int
		ids []int32
	}
	var ases []as
	for asn, ids := range w.ASInstances() {
		ases = append(ases, as{asn, ids})
	}
	sort.Slice(ases, func(i, j int) bool {
		if len(ases[i].ids) != len(ases[j].ids) {
			return len(ases[i].ids) > len(ases[j].ids)
		}
		return ases[i].asn < ases[j].asn
	})
	var asSized [][]int32
	for _, a := range ases[:min(len(ases), 15)] {
		asSized = append(asSized, a.ids)
	}

	var overlapping, repeated [][]int32
	for k := 0; 2*k+5 <= n; k++ {
		overlapping = append(overlapping, order[2*k:2*k+5]) // shares three ids with the next
	}
	for k := 0; k < n; k++ {
		repeated = append(repeated, []int32{order[k/2], order[k/2], order[0]})
		if k%7 == 3 {
			repeated = append(repeated, nil)
		}
	}
	return map[string][][]int32{
		"singleton":   graph.SingletonBatches(order, n),
		"AS-sized":    asSized,
		"overlapping": overlapping,
		"repeated-id": repeated,
	}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference has %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: point %d = %v (%#x), reference %v (%#x)", what, k,
				got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// The incremental sweep is the per-point full re-evaluation, bit for bit.
func TestSweepMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w := gen.Generate(gen.TinyConfig(seed))
		exp := New(w)
		for shape, batches := range sweepBatches(w) {
			for _, s := range sweepStrategies(w, seed) {
				requireSameBits(t, fmt.Sprintf("seed %d, %s batches, %s", seed, shape, s.Name()),
					exp.Sweep(s, batches), refSweep(exp, s, batches))
			}
		}
	}
}

// A single mask is the sweep's one-point case, and Survivors reads the same
// draws: both against the reference on random masks of every density.
func TestMaskMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w := gen.Generate(gen.TinyConfig(seed))
		exp := New(w)
		r := seed
		for _, density := range []uint64{0, 1, 4, 7, 8} {
			down := make([]bool, len(w.Instances))
			for i := range down {
				r = r*6364136223846793005 + 1442695040888963407
				down[i] = (r>>33)%8 < density
			}
			for _, s := range sweepStrategies(w, seed) {
				what := fmt.Sprintf("seed %d, %d/8 down, %s", seed, density, s.Name())
				requireSameBits(t, what,
					[]float64{exp.Availability(s, down)}, []float64{refAvailability(exp, s, down)})
				alive := exp.Survivors(s, down)
				for u := range alive {
					if want := refSurvives(exp, s, int32(u), down); alive[u] != want {
						t.Fatalf("%s: user %d survives = %v, reference %v", what, u, alive[u], want)
					}
				}
			}
		}
	}
}

// More replicas than instances, every instance down: the sampled draw loop
// must stop once every instance is drawn (it spun forever) and the closed
// form must be 0, not 0/0.
func TestRandRepMoreReplicasThanInstances(t *testing.T) {
	exp := New(microWorld())
	allDown := []bool{true, true, true}
	for _, s := range []Strategy{
		RandRep{N: 4, Samples: 4, Seed: 1},
		RandRep{N: 4, Exact: true},
	} {
		done := make(chan float64, 1)
		go func() { done <- exp.Availability(s, allDown) }()
		select {
		case got := <-done:
			if got != 0 {
				t.Fatalf("%s exact=%v, every instance down: availability = %v, want 0", s.Name(), s.(RandRep).Exact, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Availability did not return with every instance down", s.Name())
		}
		if got := exp.Survivors(s, allDown); !reflect.DeepEqual(got, make([]bool, 4)) {
			t.Fatalf("%s: survivors with every instance down = %v", s.Name(), got)
		}
		// One instance up: every replica set covers it, so nothing is lost.
		if got := exp.Availability(s, []bool{true, true, false}); got != 100 {
			t.Fatalf("%s, one instance up: availability = %v, want 100", s.Name(), got)
		}
	}
}

// An Experiment is read-only after New: four goroutines sweep one with
// every strategy at once (run under -race) and get the sequential series.
func TestConcurrentSweeps(t *testing.T) {
	w, exp := sharedWorld(t)
	batches := sweepBatches(w)["singleton"]
	strategies := sweepStrategies(w, 3)
	want := make([][]float64, len(strategies))
	for i, s := range strategies {
		want[i] = exp.Sweep(s, batches)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range strategies {
				s := strategies[(i+g)%len(strategies)]
				if got := exp.Sweep(s, batches); !reflect.DeepEqual(got, want[(i+g)%len(strategies)]) {
					t.Errorf("goroutine %d: %s differs from the sequential sweep", g, s.Name())
				}
			}
		}()
	}
	wg.Wait()
}

// The guide-table search is sort.SearchFloat64s at every cumulative weight,
// the floats either side of it, and the ends of the range.
func TestGuideSearchMatchesSort(t *testing.T) {
	w, _ := sharedWorld(t)
	users := w.InstanceUserWeights()
	for name, weights := range map[string][]float64{
		"capacity":   users,
		"inverse":    inverseWeights(users),
		"single":     {3},
		"zero runs":  {0, 0, 5, 0, 0, 0, 1e-9, 0, 7, 0},
		"one giant":  {1e-12, 1e12, 1e-12, 1e-12, 1e-12, 1e-12},
		"tiny total": {1e-300, 2e-300, 0, 1e-300},
		"huge total": {1e300, 1e300, 1e299},
	} {
		s := NewWeightedRep(1, weights, 1, 1, name)
		total := s.cum[len(s.cum)-1]
		probes := []float64{0, math.SmallestNonzeroFloat64, total / 2, total, 2 * total, math.Inf(1), -1}
		for _, c := range s.cum {
			probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		for b := range s.guide { // the slice edges, where the starting slice can round either way
			edge := float64(b) / s.perUnit
			probes = append(probes, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		for _, x := range probes {
			if got, want := s.search(x), sort.SearchFloat64s(s.cum, x); got != want {
				t.Fatalf("%s weights: search(%v) = %d, sort.SearchFloat64s = %d", name, x, got, want)
			}
		}
	}
}

// fuzzWorld is a world small enough to re-evaluate in full per fuzz input:
// six instances, eighteen users, a third of them silent.
func fuzzWorld() *dataset.World {
	const insts, users = 6, 18
	w := &dataset.World{Days: 1, Instances: make([]dataset.Instance, insts), Users: make([]dataset.User, users)}
	rows := make([][]int32, users)
	for u := range w.Users {
		home, toots := int32(u*u%insts), u%3*(u+2)
		w.Users[u] = dataset.User{ID: int32(u), Instance: home, Toots: toots}
		w.Instances[home].Users++
		w.Instances[home].Toots += int64(toots)
		rows[u] = []int32{int32((u*5 + 1) % users), int32((u + 7) % users)}
	}
	for i := range w.Instances {
		w.Instances[i].ID = int32(i)
		w.Instances[i].Domain = fmt.Sprintf("i%d.test", i) // ring members for DHTRep
	}
	w.Social = graph.FromRows(rows)
	return w
}

// FuzzSweep: bytes are instance ids (low three bits; 6 and 7 close the
// batch), so inputs reach empty, repeated and overlapping batches and
// sweeps that take every instance down.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{}) // the rest of the seeds are in testdata/fuzz/FuzzSweep
	w := fuzzWorld()
	exp := New(w)
	strategies := append(sweepStrategies(w, 7), RandRep{N: 8, Samples: 3, Seed: 2}, RandRep{N: 8, Exact: true})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		batches := [][]int32{nil}
		for _, b := range data {
			if id := int32(b & 7); id < int32(len(w.Instances)) {
				batches[len(batches)-1] = append(batches[len(batches)-1], id)
			} else {
				batches = append(batches, nil)
			}
		}
		for _, s := range strategies {
			requireSameBits(t, s.Name(), exp.Sweep(s, batches), refSweep(exp, s, batches))
		}
	})
}

// A fixed placement's sweep files each user's toots once, at the point its
// last copy falls, and subtracts; the reference adds users up in order at
// every point. The two agree because every partial sum is an exact float64
// integer, which holds up to 2^53 toots in all: here each tooting user has
// about 2^48, so the world holds about 2^52.
func TestHeldSweepExactAtLargeCounts(t *testing.T) {
	w := fuzzWorld()
	for u := range w.Users {
		if w.Users[u].Toots != 0 {
			w.Users[u].Toots = 1<<48 + u*7919 + 1
		}
	}
	exp := New(w)
	orders := [][]int32{{0, 1, 2, 3, 4, 5}, {5, 3, 1, 0, 2, 4}, {2, 2, 4, 0, 5, 1, 3}}
	for _, s := range []Strategy{NoRep{}, SubRep{}, NewDHTRep(w, dhtWorldRing(w, 2))} {
		for _, order := range orders {
			batches := graph.SingletonBatches(order, len(order))
			requireSameBits(t, fmt.Sprintf("%s, order %v", s.Name(), order), exp.Sweep(s, batches), refSweep(exp, s, batches))
		}
		requireSameBits(t, s.Name()+", two at a time", exp.Sweep(s, [][]int32{{0, 3}, {1, 4}, {2, 5}}),
			refSweep(exp, s, [][]int32{{0, 3}, {1, 4}, {2, 5}}))
	}
}

// The per-sample memo is the per-point evaluation, and the replay it
// replaced, on the world bench/ runs paper-pipeline on: ext-capacity's
// two weightings over its 50 removals, and a uniform sampled placement.
func TestMemoMatchesReference(t *testing.T) {
	cfg := gen.SmallConfig(1)
	cfg.Instances, cfg.Users = 500, 20000
	w := gen.Generate(cfg)
	exp := New(w)
	batches := graph.SingletonBatches(graph.RankDescending(w.InstanceTootWeights()), 50)
	users := w.InstanceUserWeights()
	capacity, inverse := NewWeightedRep(2, users, 12, 1, "capacity"), NewWeightedRep(2, inverseWeights(users), 12, 1, "inverse")
	uniform := RandRep{N: 2, Samples: 16, Seed: 1}
	for _, s := range []sampler{&capacity, &inverse, &uniform} {
		got := exp.Sweep(s, batches)
		requireSameBits(t, s.Name(), got, refSweep(exp, derefSampler(s), batches))
		requireSameBits(t, s.Name()+", replayed", got, exp.replaySampled(s, sweepTimes(exp, batches), len(batches)+1))
	}
}

// countingSampler counts the samples a sweep places.
type countingSampler struct {
	sampler
	placed int
}

func (c *countingSampler) place(sw *sweep) (int32, bool) {
	c.placed++
	return c.sampler.place(sw)
}

// The memo is used: on ext-capacity's capacity weighting, where a
// re-evaluation is due every time a hub that saved a sample falls, it
// places fewer samples than the replay, and the same series.
func TestMemoPlacesFewerSamples(t *testing.T) {
	w, exp := sharedWorld(t)
	batches := graph.SingletonBatches(graph.RankDescending(w.InstanceTootWeights()), 40)
	at := sweepTimes(exp, batches)
	s := NewWeightedRep(2, w.InstanceUserWeights(), 12, 1, "capacity")
	memo, replay := &countingSampler{sampler: &s}, &countingSampler{sampler: &s}
	requireSameBits(t, "memo vs replay", exp.runSampled(memo, at, len(batches)+1), exp.replaySampled(replay, at, len(batches)+1))
	t.Logf("%d samples placed with the memo, %d replayed", memo.placed, replay.placed)
	if memo.placed >= replay.placed {
		t.Fatalf("the memo placed %d samples, the replay %d", memo.placed, replay.placed)
	}
}

// derefSampler is the strategy value refSweep's type switch knows.
func derefSampler(s sampler) Strategy {
	switch s := s.(type) {
	case *WeightedRep:
		return *s
	case *RandRep:
		return *s
	}
	return s
}

// sweepTimes is the removal schedule Sweep builds from batches.
func sweepTimes(exp *Experiment, batches [][]int32) []int32 {
	at := make([]int32, len(exp.w.Instances))
	for i := range at {
		at[i] = never
	}
	for k, batch := range batches {
		for _, id := range batch {
			at[id] = min(at[id], int32(k+1))
		}
	}
	return at
}

// A sampled sweep's draw cache is one arena sized up front: a sweep of 40
// points, which displaces more users and re-evaluates them more often,
// allocates no more often than one of 4.
func TestSweepAllocsFlatInPoints(t *testing.T) {
	w, exp := sharedWorld(t)
	order := graph.RankDescending(w.InstanceTootWeights())
	for _, s := range []Strategy{
		RandRep{N: 2, Samples: 16, Seed: 1},
		NewWeightedRep(2, w.InstanceUserWeights(), 12, 1, "capacity"),
	} {
		allocs := func(points int) float64 {
			batches := graph.SingletonBatches(order, points-1)
			return testing.AllocsPerRun(5, func() { exp.Sweep(s, batches) })
		}
		if few, many := allocs(4), allocs(40); many > few {
			t.Fatalf("%s: %v allocations at 40 points, %v at 4", s.Name(), many, few)
		}
	}
}

// BenchmarkSweep is the Fig 16 instance sweep over the calibrated small
// world, one strategy per kernel: a fixed placement, the closed form, and a
// sampled strategy at two sample sizes and with ext-capacity's weighting.
func BenchmarkSweep(b *testing.B) {
	w := gen.Generate(gen.SmallConfig(1))
	exp := New(w)
	batches := graph.SingletonBatches(graph.RankDescending(w.InstanceTootWeights()), 100)
	for _, bc := range []struct {
		name string
		s    Strategy
	}{
		{"fixed", SubRep{}},
		{"exact", RandRep{N: 2, Exact: true}},
		{"samples=16", RandRep{N: 2, Samples: 16, Seed: 1}},
		{"samples=128", RandRep{N: 2, Samples: 128, Seed: 1}},
		{"weighted", NewWeightedRep(2, w.InstanceUserWeights(), 12, 1, "capacity")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				exp.Sweep(bc.s, batches)
			}
		})
	}
	// The sampled sweep without its per-sample memo.
	s := NewWeightedRep(2, w.InstanceUserWeights(), 12, 1, "capacity")
	at := sweepTimes(exp, batches)
	b.Run("weighted/replay", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			exp.replaySampled(&s, at, len(batches)+1)
		}
	})
}
