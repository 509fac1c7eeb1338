package twitter

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// refGraph is Graph as it was before the arena: every edge goes through a
// graph.Builder, which grows one row per user.
func refGraph(cfg GraphConfig) *graph.CSR {
	r := rand.New(rand.NewPCG(cfg.Seed, 0x7777))
	n := cfg.Users
	g := graph.NewBuilder(n)
	if n < 2 {
		return g.Freeze()
	}

	fame := make([]float64, n)
	cum := make([]float64, n)
	total := 0.0
	for i := range fame {
		u := r.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		f := math.Pow(u, -1/cfg.FameTail)
		if f > 1e6 {
			f = 1e6
		}
		fame[i] = f
		total += f
		cum[i] = total
	}
	byFame := gen.NewCumSampler(cum)

	followedBy := make([]int32, n)
	for u := 0; u < n; u++ {
		k := cfg.MinFollows + int(r.ExpFloat64()*(cfg.MeanFollows-float64(cfg.MinFollows)))
		if k > n-1 {
			k = n - 1
		}
		attempts := 0
		for added := 0; added < k && attempts < k*10+20; attempts++ {
			var v int32
			if r.Float64() < cfg.UniformFrac {
				v = int32(r.IntN(n))
			} else {
				v = int32(byFame.Sample(r))
			}
			if v == int32(u) || followedBy[v] == int32(u)+1 {
				continue
			}
			followedBy[v] = int32(u) + 1
			g.AddEdge(int32(u), v)
			added++
		}
	}
	return g.Freeze()
}

// The arena graph is the Builder graph: the same out-, in- and merged
// neighbour arrays at every node, for three seeds and five sizes.
func TestGraphMatchesBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, n := range []int{0, 1, 2, 1000, 20000} {
			cfg := DefaultGraphConfig(seed, n)
			got, want := Graph(cfg), refGraph(cfg)
			what := fmt.Sprintf("seed %d, %d users", seed, n)
			if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
				t.Fatalf("%s: %d nodes %d edges, Builder gives %d nodes %d edges",
					what, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
			}
			for v := int32(0); int(v) < n; v++ {
				for _, a := range []struct {
					name      string
					got, want []int32
				}{
					{"Out", got.Out(v), want.Out(v)},
					{"In", got.In(v), want.In(v)},
					{"Und", got.Und(v), want.Und(v)},
				} {
					if !slices.Equal(a.got, a.want) {
						t.Fatalf("%s: %s(%d) = %v, Builder gives %v", what, a.name, v, a.got, a.want)
					}
				}
			}
		}
	}
}

// BenchmarkTwitterGraph builds the baseline Figs 11 and 12 compare against
// on the benchmark's world of 20,000 users.
func BenchmarkTwitterGraph(b *testing.B) {
	cfg := DefaultGraphConfig(1, 20000)
	for _, k := range []struct {
		name string
		f    func(GraphConfig) *graph.CSR
	}{{"arena", Graph}, {"builder", refGraph}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				k.f(cfg)
			}
		})
	}
}
