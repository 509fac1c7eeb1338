package replication

import (
	"reflect"
	"testing"
)

func TestSurvivorsNoRep(t *testing.T) {
	exp := New(microWorld())
	down := []bool{true, false, false}
	got := exp.Survivors(NoRep{}, down)
	// Users 0 and 1 live on instance 0 (down); users 2 and 3 elsewhere.
	if want := []bool{false, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Survivors(NoRep) = %v, want %v", got, want)
	}
}

func TestSurvivorsSubRep(t *testing.T) {
	exp := New(microWorld())
	down := []bool{true, false, false}
	got := exp.Survivors(SubRep{}, down)
	// User 0 survives via follower replicas on instances 1 and 2. User 1
	// never tooted: nothing is replicated, so the home outage kills the
	// profile under every strategy.
	if want := []bool{true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Survivors(SubRep) = %v, want %v", got, want)
	}

	down = []bool{false, true, false}
	got = exp.Survivors(SubRep{}, down)
	// User 2 (home instance 1, no followers → no replicas) dies.
	if want := []bool{true, true, false, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Survivors(SubRep) = %v, want %v", got, want)
	}
}

func TestSurvivorsRandRepDeterministic(t *testing.T) {
	exp := New(microWorld())
	down := []bool{true, true, false}
	s := RandRep{N: 1, Seed: 9}
	got1 := exp.Survivors(s, down)
	got2 := exp.Survivors(s, down)
	if !reflect.DeepEqual(got1, got2) {
		t.Fatal("RandRep survivors changed between identical calls")
	}
	// With every instance up, everyone survives; with every instance down,
	// nobody does.
	if got := exp.Survivors(s, []bool{false, false, false}); !reflect.DeepEqual(got, []bool{true, true, true, true}) {
		t.Fatalf("all-up survivors = %v", got)
	}
	if got := exp.Survivors(s, []bool{true, true, true}); !reflect.DeepEqual(got, []bool{false, false, false, false}) {
		t.Fatalf("all-down survivors = %v", got)
	}
	// N covering every instance guarantees survival for tooting users as
	// long as any instance is up.
	full := RandRep{N: 3, Seed: 9}
	if got := exp.Survivors(full, down); !(got[0] && got[2] && got[3]) {
		t.Fatalf("full-replication survivors = %v, want every tooting user alive", got)
	}
}

func TestSurvivorsWeightedRep(t *testing.T) {
	exp := New(microWorld())
	// All weight on instance 2: every displaced tooting user's replica set
	// is {2}.
	s := NewWeightedRep(1, []float64{0, 0, 1}, 4, 7, "unit")
	down := []bool{true, false, false}
	got := exp.Survivors(s, down)
	if want := []bool{true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Survivors(WeightedRep→2) = %v, want %v", got, want)
	}
	down = []bool{true, false, true}
	got = exp.Survivors(s, down)
	// User 0's only replica target (instance 2) is down too; user 3's home
	// is instance 2.
	if want := []bool{false, false, true, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Survivors(WeightedRep→2) = %v, want %v", got, want)
	}
}

// TestSurvivorsConsistentWithAvailability pins the semantic link for the
// deterministic strategies: Availability is the toots of the users who
// survive (zero-toot users aside, who carry no toot mass either way).
func TestSurvivorsConsistentWithAvailability(t *testing.T) {
	exp := New(microWorld())
	for _, s := range []Strategy{NoRep{}, SubRep{}} {
		for _, down := range [][]bool{
			{false, false, false}, {true, false, false}, {false, true, false},
			{false, false, true}, {true, true, false}, {true, true, true},
		} {
			var survived float64
			for u, alive := range exp.Survivors(s, down) {
				if alive {
					survived += exp.toots[u]
				}
			}
			if got, want := exp.Availability(s, down), 100*survived/exp.totalToots; got != want {
				t.Fatalf("%s down=%v: availability %v, survivors hold %v%%", s.Name(), down, got, want)
			}
		}
	}
}
