package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// refGenSocial is genSocial's follow loop as it ran before the kernel read
// raw PCG outputs: every Float64, IntN and weighted Sample goes through
// rand.Rand, and each branch compares a Float64 with a probability.
func refGenSocial(cfg Config, insts []dataset.Instance, users []dataset.User, fame []float64) *graph.CSR {
	p := newSocialPlan(cfg, insts, users, fame)
	n := len(users)
	pInstUniform := cfg.UniformFrac + cfg.InstanceUniformFrac
	pLocal := pInstUniform + cfg.LocalBias
	pCountry := pLocal + (1-pLocal)*cfg.CountryBias
	return p.grow(cfg, func(src *unitSource, ui int, followedBy, arena []int32) []int32 {
		r := src.unit(stageSocial, uint64(ui))
		if r.Float64() < cfg.NoFollowFrac {
			return arena
		}
		want := int(float64(p.law.Sample(r)+1)*p.scale + 0.5)
		if want < 1 {
			want = 1
		}
		if want > cfg.FollowMax {
			want = cfg.FollowMax
		}
		if want > n-1 {
			want = n - 1
		}
		u := int32(ui)
		inst := users[ui].Instance
		if p.isolated[inst] && len(p.instUsers[inst]) < 2 {
			return arena
		}
		c := p.userCountry[ui]
		sample := func(s *fameSampler) int32 { return s.ids[s.pick.Sample(r)] }
		for added, attempts := 0, 0; added < want && attempts < want*20+50; attempts++ {
			var v int32
			x := r.Float64()
			switch {
			case p.isolated[inst]:
				v = sample(p.instS[inst])
			case x < cfg.UniformFrac:
				v = p.all[r.IntN(len(p.all))]
			case x < pInstUniform:
				ri := p.fedInsts[r.IntN(len(p.fedInsts))]
				pool := p.instUsers[ri]
				v = pool[r.IntN(len(pool))]
			case x < pLocal:
				v = sample(p.instS[inst])
			case x < pCountry:
				v = sample(p.countryS[c])
			default:
				v = sample(p.global)
			}
			if v == u || followedBy[v] == u+1 {
				continue
			}
			followedBy[v] = u + 1
			arena = append(arena, v)
			added++
		}
		return arena
	})
}

// socialInputs runs the stages genSocial reads.
func socialInputs(cfg Config) ([]dataset.Instance, []dataset.User, []float64) {
	m := genInstances(cfg)
	users, fame := genUsers(cfg, m)
	return m.insts, users, fame
}

// branchyConfig is a tiny world where isolated instances, uniform and
// instance-uniform follows are each common rather than a few percent.
func branchyConfig(seed uint64) Config {
	cfg := TinyConfig(seed)
	cfg.IsolatedFrac = 0.5
	cfg.UniformFrac = 0.25
	cfg.InstanceUniformFrac = 0.25
	return cfg
}

// The raw-draw kernel grows the rows the rand.Rand loop grows, at the
// benchmark's size, tiny, small and a config where every branch fires,
// at several seeds and shard counts.
func TestGenSocialMatchesReference(t *testing.T) {
	bench := func(seed uint64) Config {
		cfg := SmallConfig(seed)
		cfg.Instances, cfg.Users = 500, 20_000
		return cfg
	}
	configs := []struct {
		name  string
		make  func(uint64) Config
		seeds []uint64
	}{
		{"bench", bench, []uint64{1, 2, 7}},
		{"tiny", TinyConfig, []uint64{1, 2, 3, 7}},
		{"small", SmallConfig, []uint64{1, 3}},
		{"branchy", branchyConfig, []uint64{1, 2, 3}},
	}
	for _, c := range configs {
		for _, seed := range c.seeds {
			if testing.Short() && c.name == "small" {
				continue
			}
			cfg := c.make(seed)
			insts, users, fame := socialInputs(cfg)
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/seed=%d/shards=%d", c.name, seed, shards), func(t *testing.T) {
					cfg.Shards = shards
					got, want := genSocial(cfg, insts, users, fame), refGenSocial(cfg, insts, users, fame)
					if got.NumEdges() != want.NumEdges() {
						t.Fatalf("%d edges, the reference grows %d", got.NumEdges(), want.NumEdges())
					}
					for v := range int32(len(users)) {
						if !slices.Equal(got.Out(v), want.Out(v)) {
							t.Fatalf("user %d follows %v, the reference %v", v, got.Out(v), want.Out(v))
						}
					}
				})
			}
		}
	}
}

// branchyConfig is only a test of the branches if they fire: every
// instance at or below the median size is isolated, which puts over a
// hundred users (3%: small instances are small) in the isolated loop, and
// a quarter of follows are uniform and a quarter instance-uniform.
func TestBranchyConfigFiresEveryBranch(t *testing.T) {
	cfg := branchyConfig(1)
	insts, users, fame := socialInputs(cfg)
	p := newSocialPlan(cfg, insts, users, fame)
	isolated := 0
	for i := range users {
		if p.isolated[users[i].Instance] {
			isolated++
		}
	}
	if isolated < 100 {
		t.Errorf("%d of %d users are on isolated instances", isolated, len(users))
	}
	if p.uniform < 1<<53/5 || p.instUniform-p.uniform < 1<<53/5 {
		t.Errorf("thresholds %d, %d of 2^53", p.uniform, p.instUniform)
	}
}

// below(prob) is the first 53-bit draw whose Float64 is not below prob:
// the draw before it is, and it is not.
func TestBelowThresholds(t *testing.T) {
	cfg := SmallConfig(1)
	pInstUniform := cfg.UniformFrac + cfg.InstanceUniformFrac
	pLocal := pInstUniform + cfg.LocalBias
	probs := []float64{cfg.NoFollowFrac, cfg.UniformFrac, pInstUniform, pLocal, pLocal + (1-pLocal)*cfg.CountryBias,
		0.1, 0.3, 0.5, 1.0 / 3, math.Nextafter(1, 0), 0x1p-53, 0x3p-54, 1e-300, math.SmallestNonzeroFloat64}
	r := rand.New(rand.NewPCG(1, 2))
	for range 1000 {
		probs = append(probs, r.Float64())
	}
	for _, prob := range probs {
		th := below(prob)
		if th == 0 || th > 1<<53 {
			t.Fatalf("below(%v) = %d", prob, th)
		}
		if !(float64(th-1)/(1<<53) < prob) {
			t.Errorf("below(%v) = %d: draw %d is not below", prob, th, th-1)
		}
		if th < 1<<53 && float64(th)/(1<<53) < prob {
			t.Errorf("below(%v) = %d: draw %d is below too", prob, th, th)
		}
	}
	for prob, want := range map[float64]uint64{0: 0, -1: 0, math.NaN(): 0, 1: 1 << 53, 2: 1 << 53, math.Inf(1): 1 << 53} {
		if got := below(prob); got != want {
			t.Errorf("below(%v) = %d, want %d", prob, got, want)
		}
	}
}

// intN consumes and returns what rand.Rand.IntN does: on powers of two
// (a mask), on small counts, and on 2^62+1, where about one draw in
// sixteen falls in the rejected slice and is retried.
func TestIntNMatchesRand(t *testing.T) {
	ns := []int{3, 5, 1000, 20_000, 1<<31 - 1, 1<<62 + 1, math.MaxInt64}
	for k := range 63 {
		ns = append(ns, 1<<k)
	}
	for _, n := range ns {
		a := &pcg{hi: uint64(n), lo: 5}
		b := rand.New(rand.NewPCG(uint64(n), 5))
		for i := range 4096 {
			if got, want := intN(a, n), b.IntN(n); got != want {
				t.Fatalf("n=%d, draw %d: intN = %d, IntN = %d", n, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: intN consumed a different number of outputs than IntN", n)
		}
	}
	// The retry is exercised: 4096 draws at 2^62+1 consume more outputs.
	rng, fresh := &pcg{hi: 1, lo: 1}, &pcg{hi: 1, lo: 1}
	for range 4096 {
		intN(rng, 1<<62+1)
		fresh.Uint64()
	}
	if rng.Uint64() == fresh.Uint64() {
		t.Fatal("4096 draws at 2^62+1 consumed exactly 4096 outputs: no retry fired")
	}
}

// The copied PCG is the standard library's, output for output, from the
// seed pairs every unit's stream starts at and from arbitrary ones.
func TestPCGMatchesStdlib(t *testing.T) {
	seeds := [][2]uint64{{0, 0}, {1, 2}, {math.MaxUint64, math.MaxUint64}, {0xda3e39cb94b95bdb, 1 << 63}}
	for unit := range uint64(50) {
		a, b := unitSeedPair(1, stageSocial, unit)
		seeds = append(seeds, [2]uint64{a, b})
	}
	for _, seed := range seeds {
		got, want := &pcg{hi: seed[0], lo: seed[1]}, rand.NewPCG(seed[0], seed[1])
		for i := range 10_000 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %#x, output %d: %#x, rand.PCG gives %#x", seed, i, g, w)
			}
		}
	}
}

// BenchmarkGenSocial is the social stage alone on the benchmark's world
// (500 instances, 20K users) on one shard: the raw-draw kernel and the
// rand.Rand loop it replaced.
func BenchmarkGenSocial(b *testing.B) {
	cfg := SmallConfig(1)
	cfg.Instances, cfg.Users, cfg.Shards = 500, 20_000, 1
	insts, users, fame := socialInputs(cfg)
	for _, bc := range []struct {
		name string
		grow func(Config, []dataset.Instance, []dataset.User, []float64) *graph.CSR
	}{{"kernel", genSocial}, {"reference", refGenSocial}} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				bc.grow(cfg, insts, users, fame)
			}
		})
	}
}
