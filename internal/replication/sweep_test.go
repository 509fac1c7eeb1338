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

// BenchmarkRandRepSweep is the Fig 16 instance sweep over the calibrated
// small world: the closed form against the Monte-Carlo sample sizes.
func BenchmarkRandRepSweep(b *testing.B) {
	w := gen.Generate(gen.SmallConfig(1))
	exp := New(w)
	batches := graph.SingletonBatches(graph.RankDescending(w.InstanceTootWeights()), 100)
	for _, bc := range []struct {
		name string
		s    Strategy
	}{
		{"exact", RandRep{N: 2, Exact: true}},
		{"samples=16", RandRep{N: 2, Samples: 16, Seed: 1}},
		{"samples=128", RandRep{N: 2, Samples: 128, Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				exp.Sweep(bc.s, batches)
			}
		})
	}
}
