package dht

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

func ringOf(n int) *Ring {
	r := NewRing(3)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("instance-%03d.fedi.test", i)
	}
	r.JoinAll(names)
	return r
}

func mustPut(t *testing.T, r *Ring, key string, value []string) []string {
	t.Helper()
	holders, err := r.Put(key, value)
	if err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
	return holders
}

func mustLookup(t *testing.T, r *Ring, key string) (string, int) {
	t.Helper()
	owner, hops, err := r.Lookup(key)
	if err != nil {
		t.Fatalf("lookup %q: %v", key, err)
	}
	return owner, hops
}

func TestJoinDuplicate(t *testing.T) {
	r := ringOf(10)
	if r.Size() != 10 {
		t.Fatalf("size = %d", r.Size())
	}
	r.Join("instance-003.fedi.test") // duplicate join is a no-op
	if r.Size() != 10 {
		t.Fatal("duplicate join changed size")
	}
}

func TestPutGet(t *testing.T) {
	r := ringOf(20)
	holders := mustPut(t, r, "toot:42", []string{"a.test", "b.test"})
	if len(holders) != 3 {
		t.Fatalf("holders = %v", holders)
	}
	val, attempts, err := r.Get("toot:42")
	if err != nil || attempts != 1 {
		t.Fatalf("get: %v (attempts %d)", err, attempts)
	}
	if len(val) != 2 || val[0] != "a.test" {
		t.Fatalf("value = %v", val)
	}
	if _, _, err := r.Get("missing"); err == nil {
		t.Fatal("expected miss")
	}
	// Re-putting a key replaces its value.
	mustPut(t, r, "toot:42", []string{"c.test"})
	val, _, err = r.Get("toot:42")
	if err != nil || len(val) != 1 || val[0] != "c.test" {
		t.Fatalf("value after re-put = %v (%v)", val, err)
	}
}

// Regression for the silent hash-collision overwrite: the store used to be
// keyed by hashKey(key) alone, so a second Put whose key collided on the
// 64-bit FNV hash clobbered the first key's entry and made it unfindable.
// The hash hook forces every key into one bucket; distinct keys must still
// coexist.
func TestHashCollisionKeysCoexist(t *testing.T) {
	r := NewRing(3)
	nodeHash := fnvKey
	r.hash = func(s string) uint64 {
		if len(s) > 5 && s[:5] == "node:" {
			return nodeHash(s) // nodes keep distinct ids
		}
		return 0xdeadbeef // every key collides
	}
	r.JoinAll([]string{"a.test", "b.test", "c.test", "d.test", "e.test"})

	mustPut(t, r, "first", []string{"v1"})
	mustPut(t, r, "second", []string{"v2"})

	v1, _, err := r.Get("first")
	if err != nil {
		t.Fatalf("first key lost after colliding put: %v", err)
	}
	if len(v1) != 1 || v1[0] != "v1" {
		t.Fatalf("first = %v, want [v1]", v1)
	}
	v2, _, err := r.Get("second")
	if err != nil || v2[0] != "v2" {
		t.Fatalf("second = %v (%v), want [v2]", v2, err)
	}
	// A key that merely collides but was never stored is still a miss.
	if _, _, err := r.Get("third"); err == nil {
		t.Fatal("unstored colliding key did not miss")
	}
	// Replacement inside a collision chain touches only its own key.
	mustPut(t, r, "first", []string{"v1b"})
	v1, _, _ = r.Get("first")
	v2, _, _ = r.Get("second")
	if v1[0] != "v1b" || v2[0] != "v2" {
		t.Fatalf("after chain replace: first=%v second=%v", v1, v2)
	}
	if got := len(r.Keys()); got != 2 {
		t.Fatalf("Keys() = %d entries, want 2", got)
	}
}

func TestGetSurvivesReplicaFailures(t *testing.T) {
	r := ringOf(20)
	holders := mustPut(t, r, "toot:7", []string{"x.test"})
	// Kill the first two holders: the third still serves the entry.
	r.SetDown(holders[0], true)
	r.SetDown(holders[1], true)
	val, attempts, err := r.Get("toot:7")
	if err != nil || attempts != 3 {
		t.Fatalf("get after 2 failures: err=%v attempts=%d", err, attempts)
	}
	if val[0] != "x.test" {
		t.Fatalf("value = %v", val)
	}
	// Kill the last holder: the index entry is unreachable.
	r.SetDown(holders[2], true)
	if _, _, err := r.Get("toot:7"); err == nil {
		t.Fatal("expected failure with all replicas down")
	}
	// Recovery brings it back.
	r.SetDown(holders[1], false)
	if _, _, err := r.Get("toot:7"); err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
}

// Regression for the Put/Get liveness mismatch: placement is membership-
// based (a down member stays a holder, its copy unreachable until
// recovery), so a SetDown/Put/recover round-trip behaves identically
// whichever side of the Put the failure lands on.
func TestPlacementIgnoresLivenessConsistently(t *testing.T) {
	build := func(downFirst bool) ([]string, *Ring) {
		r := ringOf(12)
		probe, err := r.Holders("k")
		if err != nil {
			t.Fatal(err)
		}
		if downFirst {
			r.SetDown(probe[0], true)
			mustPut(t, r, "k", []string{"v"})
		} else {
			mustPut(t, r, "k", []string{"v"})
			r.SetDown(probe[0], true)
		}
		holders, err := r.Holders("k")
		if err != nil {
			t.Fatal(err)
		}
		return holders, r
	}

	before, rBefore := build(true)
	after, rAfter := build(false)
	// Identical holder sets: put-time liveness does not change placement.
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("placement differs with put-time liveness: %v vs %v", before, after)
	}
	for _, r := range []*Ring{rBefore, rAfter} {
		// The down primary is skipped; a live replica serves.
		val, attempts, err := r.Get("k")
		if err != nil || attempts != 2 || val[0] != "v" {
			t.Fatalf("get with down primary: val=%v attempts=%d err=%v", val, attempts, err)
		}
		// Down the remaining holders: unreachable even though the down
		// primary "has" the entry.
		for _, h := range before[1:] {
			r.SetDown(h, true)
		}
		if _, _, err := r.Get("k"); err == nil {
			t.Fatal("entry reachable with every holder down")
		}
		// Recover the primary: reachable again, first attempt.
		r.SetDown(before[0], false)
		val, attempts, err = r.Get("k")
		if err != nil || attempts != 1 || val[0] != "v" {
			t.Fatalf("get after recovery: val=%v attempts=%d err=%v", val, attempts, err)
		}
	}
}

func TestSetDownUnknownNode(t *testing.T) {
	r := ringOf(3)
	r.SetDown("ghost", true) // must not panic or corrupt state
	if r.Size() != 3 {
		t.Fatal("size changed")
	}
	if r.Down("ghost") {
		t.Fatal("unknown node reported down")
	}
}

func TestLookupOwnerConsistency(t *testing.T) {
	r := ringOf(50)
	// The owner of a key is stable and independent of the routing path.
	o1, _ := mustLookup(t, r, "toot:123")
	o2, _ := mustLookup(t, r, "toot:123")
	if o1 != o2 {
		t.Fatalf("owners differ: %s vs %s", o1, o2)
	}
	// Put holders start with the owner.
	holders := mustPut(t, r, "toot:123", []string{"v"})
	if holders[0] != o1 {
		t.Fatalf("primary holder %s != lookup owner %s", holders[0], o1)
	}
	// Holders reports the same successor set without storing.
	hs, err := r.Holders("toot:123")
	if err != nil || fmt.Sprint(hs) != fmt.Sprint(holders) {
		t.Fatalf("Holders = %v (%v), want %v", hs, err, holders)
	}
}

func TestRoutingIsLogarithmic(t *testing.T) {
	for _, n := range []int{16, 256, 1024} {
		r := ringOf(n)
		s := r.RouteStats(200)
		if s.Keys != 200 {
			t.Fatalf("n=%d: measured %d keys, want 200", n, s.Keys)
		}
		bound := 2*math.Log2(float64(n)) + 2
		if s.MeanHops > bound {
			t.Fatalf("n=%d: mean hops %.1f exceeds 2·log2(n)+2 = %.1f", n, s.MeanHops, bound)
		}
		if s.MaxHops > 4*int(math.Log2(float64(n)))+8 {
			t.Fatalf("n=%d: max hops %d too high", n, s.MaxHops)
		}
	}
}

// Regression for the empty-ring panics: Lookup and Put used to panic. Every
// operation now degrades to an error.
func TestEmptyRingErrors(t *testing.T) {
	r := NewRing(0)
	if _, _, err := r.Get("k"); err == nil {
		t.Fatal("expected error on empty ring get")
	}
	if _, _, err := r.Lookup("k"); err == nil {
		t.Fatal("expected error on empty ring lookup")
	}
	if _, err := r.Put("k", nil); err == nil {
		t.Fatal("expected error on empty ring put")
	}
	if _, err := r.Holders("k"); err == nil {
		t.Fatal("expected error on empty ring holders")
	}
	if s := r.RouteStats(5); s.Keys != 0 || s.MaxHops != 0 {
		t.Fatalf("empty-ring RouteStats = %+v, want zero", s)
	}
}

// Regression for the write-locked lookup path: fingers are rebuilt eagerly
// on membership change, so concurrent lookups share the read lock. Run
// with -race: parallel RouteStats against concurrent SetDown/Join
// must be clean and every goroutine must see the logarithmic bound.
func TestRouteStatsParallel(t *testing.T) {
	const n = 256
	r := ringOf(n)
	bound := 2*math.Log2(float64(n)) + 4
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := r.RouteStats(50)
				if s.Keys > 0 && s.MeanHops > bound {
					errs <- fmt.Errorf("mean hops %.1f exceeds %.1f", s.MeanHops, bound)
					return
				}
			}
		}()
	}
	// Membership and liveness churn racing the lookups.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("instance-%03d.fedi.test", i%n)
			r.SetDown(name, i%2 == 0)
			if i%5 == 0 {
				r.Join(fmt.Sprintf("late-%03d.fedi.test", i))
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReplicationClampedToRingSize(t *testing.T) {
	r := NewRing(5)
	r.Join("only.test")
	holders := mustPut(t, r, "k", []string{"v"})
	if len(holders) != 1 || holders[0] != "only.test" {
		t.Fatalf("holders = %v", holders)
	}
}

// Property: every stored key is retrievable while at least one of its
// holders is up, and its owner is among the holders.
func TestPutGetProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, keysRaw uint8) bool {
		n := int(nRaw%40) + 3
		r := ringOf(n)
		keys := int(keysRaw%20) + 1
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key-%d-%d", seed, k)
			holders, err := r.Put(key, []string{key + "-value"})
			if err != nil {
				return false
			}
			owner, _, err := r.Lookup(key)
			if err != nil || holders[0] != owner {
				return false
			}
			// Kill all but the last holder.
			for _, h := range holders[:len(holders)-1] {
				r.SetDown(h, true)
			}
			val, _, err := r.Get(key)
			if err != nil || val[0] != key+"-value" {
				return false
			}
			for _, h := range holders {
				r.SetDown(h, false)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after ANY join/SetDown sequence, every stored key is
// Get-able iff at least one of its current replication successors is up —
// the availability invariant the dht-churn scenario's metrics ride on.
func TestChurnAvailabilityProperty(t *testing.T) {
	checkInvariant := func(r *Ring) error {
		for _, key := range r.Keys() {
			holders, herr := r.Holders(key)
			_, _, gerr := r.Get(key)
			if herr != nil {
				// Empty ring: nothing is resolvable.
				if gerr == nil {
					return fmt.Errorf("key %q resolvable on empty ring", key)
				}
				continue
			}
			anyUp := false
			for _, h := range holders {
				if !r.Down(h) {
					anyUp = true
					break
				}
			}
			if anyUp != (gerr == nil) {
				return fmt.Errorf("key %q: holders %v up=%v but get err=%v", key, holders, anyUp, gerr)
			}
		}
		return nil
	}

	f := func(seed uint64, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 0xd47))
		r := NewRing(3)
		ops := int(opsRaw%120) + 20
		for i := 0; i < ops; i++ {
			name := fmt.Sprintf("n%d.test", rng.IntN(20))
			switch rng.IntN(4) {
			case 0:
				r.Join(name)
			case 1:
				r.SetDown(name, rng.IntN(2) == 0)
			case 2:
				r.Put(fmt.Sprintf("key-%d", rng.IntN(12)), []string{name})
			case 3:
				r.Lookup(fmt.Sprintf("key-%d", rng.IntN(12)))
			}
			if err := checkInvariant(r); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookups terminate (bounded hops) for arbitrary ring sizes.
func TestLookupTerminatesProperty(t *testing.T) {
	f := func(nRaw uint8, key string) bool {
		n := int(nRaw%60) + 1
		r := ringOf(n)
		_, hops, err := r.Lookup(key)
		return err == nil && hops <= 10*64 // generous upper bound; just must terminate quickly
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDHTLookup(b *testing.B) {
	ring := ringOf(1024)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, _, err := ring.Lookup(fmt.Sprintf("key-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinAll(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		ringOf(1024)
	}
}
