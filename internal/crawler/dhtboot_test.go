package crawler

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dht"
)

// fakeIndex is an in-memory DirectoryIndex: presence records keyed by
// dht.PresenceKey, counting the lookups it serves and the ones it cannot.
type fakeIndex struct {
	records           map[string][]string
	lookups, failures int
}

func (f *fakeIndex) Resolve(key string) ([]string, int, error) {
	f.lookups++
	v, ok := f.records[key]
	if !ok {
		f.failures++
		return nil, 2, errors.New("unresolvable")
	}
	return v, 2, nil
}

func presenceGraph(edges map[string][]string) *fakeIndex {
	recs := make(map[string][]string, len(edges))
	for dom, peers := range edges {
		recs[dht.PresenceKey(dom)] = peers
	}
	return &fakeIndex{records: recs}
}

func TestDHTBootstrapWalksPresenceRecords(t *testing.T) {
	idx := presenceGraph(map[string][]string{
		"a.test": {"b.test", "c.test"},
		"b.test": {"d.test"},
		"c.test": {},
		"d.test": {"a.test"},
	})
	d := &DHTBootstrap{Index: idx}
	got := d.Discover(context.Background(), []string{"a.test"})
	want := []string{"a.test", "b.test", "c.test", "d.test"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("discovered %v, want %v", got, want)
	}
	if idx.failures != 0 {
		t.Fatalf("failures = %d, want 0", idx.failures)
	}
	if idx.lookups != 4 {
		t.Fatalf("lookups = %d, want 4 (each domain resolved once)", idx.lookups)
	}
}

func TestDHTBootstrapDropsUnresolvableNonSeeds(t *testing.T) {
	// ghost.test is advertised by a.test but has no presence record (it
	// never published, or its index holders are all down); dead-seed.test is
	// equally unresolvable but was a seed, so it stays in the report.
	idx := presenceGraph(map[string][]string{
		"a.test": {"ghost.test", "b.test"},
		"b.test": {},
	})
	d := &DHTBootstrap{Index: idx}
	got := d.Discover(context.Background(), []string{"a.test", "dead-seed.test"})
	want := []string{"a.test", "b.test", "dead-seed.test"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("discovered %v, want %v", got, want)
	}
	if idx.failures != 2 {
		t.Fatalf("failures = %d, want 2 (ghost + dead seed)", idx.failures)
	}
}

func TestDHTBootstrapMaxHostsDeterministic(t *testing.T) {
	// One seed pointing at many peers: the cap must always admit the
	// lexicographically smallest ones, independent of map iteration order.
	peers := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		peers = append(peers, fmt.Sprintf("p%02d.test", i))
	}
	edges := map[string][]string{"seed.test": peers}
	for _, p := range peers {
		edges[p] = nil
	}
	var first []string
	for trial := 0; trial < 5; trial++ {
		d := &DHTBootstrap{Index: presenceGraph(edges), MaxHosts: 6}
		got := d.Discover(context.Background(), []string{"seed.test"})
		if len(got) != 6 {
			t.Fatalf("discovered %d hosts, want 6", len(got))
		}
		if got[0] != "p00.test" || got[len(got)-1] != "seed.test" {
			t.Fatalf("cap admitted %v, want smallest peers plus the seed", got)
		}
		if trial == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("trial %d diverged: %v vs %v", trial, got, first)
		}
	}
}

func TestDHTBootstrapOverRealRing(t *testing.T) {
	// End-to-end over a real ring (no simnet dependency): presence records
	// stored in the ring resolve through an adapter, and taking every index
	// holder of a record down makes its domain undiscoverable.
	ring := dht.NewRing(2)
	domains := []string{"a.test", "b.test", "c.test", "d.test", "e.test"}
	ring.JoinAll(domains)
	put := func(dom string, peers ...string) {
		if _, err := ring.Put(dht.PresenceKey(dom), peers); err != nil {
			t.Fatal(err)
		}
	}
	put("a.test", "b.test")
	put("b.test", "c.test")
	put("c.test")

	d := &DHTBootstrap{Index: ringIndex{ring}}
	got := d.Discover(context.Background(), []string{"a.test"})
	want := []string{"a.test", "b.test", "c.test"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("discovered %v, want %v", got, want)
	}

	holders, err := ring.Holders(dht.PresenceKey("c.test"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range holders {
		ring.SetDown(h, true)
	}
	d = &DHTBootstrap{Index: ringIndex{ring}}
	got = d.Discover(context.Background(), []string{"a.test"})
	want = []string{"a.test", "b.test"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("with c's index holders down, discovered %v, want %v", got, want)
	}
}

// ringIndex adapts a bare dht.Ring to DirectoryIndex the way
// simnet.Directory does: Lookup for the hop count, Get for the value.
type ringIndex struct{ ring *dht.Ring }

func (r ringIndex) Resolve(key string) ([]string, int, error) {
	_, hops, err := r.ring.Lookup(key)
	if err != nil {
		return nil, 0, err
	}
	v, _, err := r.ring.Get(key)
	return v, hops, err
}
