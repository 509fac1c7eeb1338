package replication

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
)

// dhtWorld is microWorld with domains, so ring holders map back to
// instance indices.
func dhtWorld() *dataset.World {
	w := microWorld()
	for i := range w.Instances {
		w.Instances[i].Domain = []string{"a.test", "b.test", "c.test"}[i]
	}
	return w
}

func dhtWorldRing(w *dataset.World, replication int) *dht.Ring {
	r := dht.NewRing(replication)
	domains := make([]string, len(w.Instances))
	for i := range w.Instances {
		domains[i] = w.Instances[i].Domain
	}
	r.JoinAll(domains)
	return r
}

func TestDHTRepPlacementFollowsRing(t *testing.T) {
	w := dhtWorld()
	ring := dhtWorldRing(w, 2)
	exp := New(w)
	s := NewDHTRep(w, ring)

	down := make([]bool, 3)
	if got := exp.Availability(s, down); got != 100 {
		t.Fatalf("intact availability = %g", got)
	}

	// For every user: home down, but all ring holders up → toots survive;
	// home and every holder down → toots gone.
	for u := range w.Users {
		if w.Users[u].Toots == 0 {
			continue
		}
		holders, err := ring.Holders(dht.AuthorKey(w.Users[u].ID))
		if err != nil {
			t.Fatal(err)
		}
		holderSet := make(map[string]bool, len(holders))
		for _, h := range holders {
			holderSet[h] = true
		}
		down := make([]bool, 3)
		down[w.Users[u].Instance] = true
		wantAlive := false
		for i := range w.Instances {
			if !down[i] && holderSet[w.Instances[i].Domain] {
				wantAlive = true
			}
		}
		if got := exp.Survivors(s, down)[u]; got != wantAlive {
			t.Fatalf("user %d: survives=%v with home down, holders %v", u, got, holders)
		}
		for i := range down {
			down[i] = true
		}
		if exp.Survivors(s, down)[u] {
			t.Fatalf("user %d survives with every instance down", u)
		}
	}
}

func TestDHTRepNeverWorseThanNoRep(t *testing.T) {
	w, exp := sharedWorld(t)
	ring := dhtWorldRing(w, 3)
	s := NewDHTRep(w, ring)
	down := make([]bool, len(w.Instances))
	for i := range down {
		down[i] = i%3 == 0
	}
	dhtAvail := exp.Availability(s, down)
	noAvail := exp.Availability(NoRep{}, down)
	if dhtAvail < noAvail {
		t.Fatalf("DHT-Rep (%g) worse than No-Rep (%g)", dhtAvail, noAvail)
	}
	if dhtAvail <= noAvail {
		t.Fatalf("DHT-Rep (%g) did not improve on No-Rep (%g) with a third of instances down", dhtAvail, noAvail)
	}
}

func TestDHTRepDeterministic(t *testing.T) {
	w := dhtWorld()
	exp := New(w)
	down := []bool{true, false, true}
	a := exp.Availability(NewDHTRep(w, dhtWorldRing(w, 2)), down)
	b := exp.Availability(NewDHTRep(w, dhtWorldRing(w, 2)), down)
	if a != b {
		t.Fatalf("same ring geometry, different availability: %g vs %g", a, b)
	}
}

func TestDHTRepName(t *testing.T) {
	w := dhtWorld()
	if got := NewDHTRep(w, dhtWorldRing(w, 3)).Name(); got != "DHT-Rep(n=3)" {
		t.Fatalf("name = %q", got)
	}
}
