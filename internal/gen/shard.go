package gen

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sharded generation. Every generation stage draws its randomness from a
// per-unit stream — one independent PCG per (seed, stage, unit), where the
// unit is the instance or user being synthesised — so the bytes a unit
// produces depend only on the config and its own id, never on which worker
// produced it or in what order. Shards is therefore a pure execution knob:
// the workers claim fixed-size unit ranges until none is left, fill
// disjoint slots of preallocated output, and the merged result is
// byte-identical for any shard count or GOMAXPROCS. The stage constants
// below are part of a world's identity: renumbering them changes every
// generated world, exactly like changing the seed.
const (
	stageInstance = 1 // per-instance population draws
	stageUsers    = 2 // per-instance user synthesis
	stageSocial   = 3 // per-user follow degrees and targets
	stageTraces   = 4 // per-instance availability traces
	stageBlocks   = 5 // per-instance blocklist sampling
	stagePerm     = 6 // global: the size-ladder shuffle
	stageIsolated = 7 // per-instance isolation flag
	stageASOutage = 8 // global: Table-1 AS outage injection
)

// shardCount resolves the Shards knob: 0 means one shard per available CPU.
func (cfg Config) shardCount() int {
	if cfg.Shards > 0 {
		return cfg.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// claimUnits is how many units a worker claims at a time. A unit's cost is
// heavy-tailed (an instance's size, a user's follow count), so contiguous
// halves left one worker waiting on the other; ranges this small keep
// every worker busy until the stage's last few units.
const claimUnits = 16

// runShards runs fn on every claimed range of [0, n) with the claiming
// worker's unitSource. fn must write only to unit-indexed output slots in
// [lo, hi).
func (cfg Config) runShards(n int, fn func(src *unitSource, lo, hi int)) {
	cfg.runWorkers(n, func(src *unitSource) func(lo, hi int) {
		return func(lo, hi int) { fn(src, lo, hi) }
	})
}

// runWorkers starts up to shardCount workers over the units [0, n). Each
// calls worker once, with its own unitSource, for the function it then runs
// on every range it claims from a shared counter; worker is where a stage
// allocates its per-worker scratch. One worker runs on the calling
// goroutine, in one range.
func (cfg Config) runWorkers(n int, worker func(src *unitSource) func(lo, hi int)) {
	workers := min(cfg.shardCount(), (n+claimUnits-1)/claimUnits)
	if workers <= 1 {
		if n > 0 {
			worker(newUnitSource(cfg.Seed))(0, n)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			run := worker(newUnitSource(cfg.Seed))
			for {
				lo := int(next.Add(claimUnits)) - claimUnits
				if lo >= n {
					return
				}
				run(lo, min(lo+claimUnits, n))
			}
		}()
	}
	wg.Wait()
}

// beside runs a and b, b on its own goroutine when there is more than one
// shard, and returns once both are done.
func (cfg Config) beside(a, b func()) {
	if cfg.shardCount() <= 1 {
		a()
		b()
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b()
	}()
	a()
	<-done
}

// unitSource is a worker-local RNG reseeded per unit, so a shard walks its
// range without allocating a generator per instance or user.
type unitSource struct {
	seed uint64
	pcg  *rand.PCG
	r    *rand.Rand
}

func newUnitSource(seed uint64) *unitSource {
	pcg := rand.NewPCG(0, 0)
	return &unitSource{seed: seed, pcg: pcg, r: rand.New(pcg)}
}

// unit returns the stream for (stage, unit). The returned *rand.Rand is
// the worker's shared one: it is only valid until the next unit call.
func (s *unitSource) unit(stage, unit uint64) *rand.Rand {
	a, b := unitSeedPair(s.seed, stage, unit)
	s.pcg.Seed(a, b)
	return s.r
}

// unitSeedPair mixes (seed, stage, unit) into a PCG seed pair with a
// SplitMix64 finalizer, mirroring subSeed but with the unit folded in.
func unitSeedPair(seed, stage, unit uint64) (uint64, uint64) {
	z := seed + stage*0x9e3779b97f4a7c15 + (unit+1)*0xc2b2ae3d27d4eb4f
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z, z ^ 0xda3e39cb94b95bdb
}
