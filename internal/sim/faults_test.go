package sim

import (
	"encoding/binary"
	"reflect"
	"testing"
)

func TestGenFaultScheduleDeterministic(t *testing.T) {
	cfg := FaultConfig{
		Seed: 11, Slots: 576, Faults: 3, MinSlots: 2, MeanSlots: 6,
		Hits: 2, WindowStart: 50, WindowEnd: 500,
		Persistent: []int32{1, 7}, PersistentFrom: 300,
	}
	a := GenFaultSchedule(20, cfg)
	b := GenFaultSchedule(20, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}

	cfg2 := cfg
	cfg2.Seed = 12
	c := GenFaultSchedule(20, cfg2)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical schedules")
	}

	// Adding instances must not perturb existing streams.
	d := GenFaultSchedule(30, cfg)
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(a.Faults[i], d.Faults[i]) {
			t.Fatalf("instance %d changed when the population grew", i)
		}
	}
}

func TestGenFaultScheduleShape(t *testing.T) {
	cfg := FaultConfig{
		Seed: 4, Slots: 400, Faults: 4, MinSlots: 3, MeanSlots: 10,
		Hits: 2, WindowStart: 20, WindowEnd: 380,
		Persistent: []int32{5}, PersistentFrom: 200,
	}
	fs := GenFaultSchedule(12, cfg)
	if fs.Len() != 12 {
		t.Fatalf("Len = %d, want 12", fs.Len())
	}
	for i, fl := range fs.Faults {
		wantFaults := 4
		if i == 5 {
			wantFaults = 5
		}
		if len(fl) != wantFaults {
			t.Fatalf("instance %d has %d faults, want %d", i, len(fl), wantFaults)
		}
		for k, f := range fl {
			if k > 0 && fl[k-1].Start > f.Start {
				t.Fatalf("instance %d faults not sorted by Start", i)
			}
			if f.End <= f.Start {
				t.Fatalf("instance %d fault %d empty interval [%d,%d)", i, k, f.Start, f.End)
			}
			if f.Kind <= FaultNone || f.Kind >= faultKinds {
				t.Fatalf("instance %d fault %d has invalid kind %d", i, k, f.Kind)
			}
			if f.Persistent() {
				if i != 5 {
					t.Fatalf("instance %d has an unscheduled persistent fault", i)
				}
				if f.Kind != Fault5xx || f.Start != 200 || f.End != 400 {
					t.Fatalf("persistent fault wrong shape: %+v", f)
				}
				continue
			}
			if f.Start < 20 || f.End > 380 {
				t.Fatalf("instance %d transient fault outside window: %+v", i, f)
			}
			if f.Hits != 2 {
				t.Fatalf("instance %d fault %d Hits = %d, want 2", i, k, f.Hits)
			}
			if f.RetryAfter < 1 || f.RetryAfter > 8 {
				t.Fatalf("instance %d fault %d RetryAfter = %d out of [1,8]", i, k, f.RetryAfter)
			}
		}
	}
	if got := fs.PersistentInstances(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("PersistentInstances = %v, want [5]", got)
	}
	if from := fs.PersistentFrom(5); from != 200 {
		t.Fatalf("PersistentFrom(5) = %d, want 200", from)
	}
	if from := fs.PersistentFrom(4); from != -1 {
		t.Fatalf("PersistentFrom(4) = %d, want -1", from)
	}
	if fs.Transient() {
		t.Fatal("schedule with a persistent fault reported Transient")
	}

	cfg.Persistent = nil
	if !GenFaultSchedule(12, cfg).Transient() {
		t.Fatal("transient-only schedule reported persistent")
	}
}

func TestFaultSetAt(t *testing.T) {
	fs := &FaultSet{Slots: 100, Faults: [][]Fault{
		{
			{Kind: FaultHang, Start: 10, End: 30, Hits: 2},
			{Kind: Fault5xx, Start: 20, End: 40, Hits: 2},
		},
	}}
	if _, ok := fs.At(0, 9); ok {
		t.Fatal("fault reported before Start")
	}
	if f, ok := fs.At(0, 25); !ok || f.Kind != FaultHang {
		t.Fatalf("overlap tie-break: got %v,%v; want earliest-start FaultHang", f.Kind, ok)
	}
	if f, ok := fs.At(0, 35); !ok || f.Kind != Fault5xx {
		t.Fatalf("At(0,35) = %v,%v; want Fault5xx", f.Kind, ok)
	}
	if _, ok := fs.At(0, 40); ok {
		t.Fatal("fault reported at End (interval is half-open)")
	}
	if _, ok := fs.At(1, 25); ok {
		t.Fatal("out-of-range instance reported a fault")
	}
	if _, ok := fs.At(-1, 25); ok {
		t.Fatal("negative instance reported a fault")
	}
}

func TestGenFaultSchedulePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative n", func() { GenFaultSchedule(-1, FaultConfig{Slots: 10}) })
	mustPanic("zero slots", func() { GenFaultSchedule(5, FaultConfig{}) })
}

// FuzzFaultSchedule drives GenFaultSchedule across its whole knob space and
// checks the structural invariants every consumer relies on: determinism,
// interval bounds, per-instance sort order, persistent bookkeeping, and At
// consistency with the raw fault lists.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(10), uint8(2), uint8(3), uint8(2), uint16(20), uint16(180), uint8(3), uint16(100))
	f.Add(uint64(99), uint16(576), uint8(40), uint8(1), uint8(0), uint8(1), uint16(0), uint16(0), uint8(0), uint16(0))
	f.Add(uint64(7), uint16(50), uint8(3), uint8(5), uint8(8), uint8(4), uint16(40), uint16(10), uint8(1), uint16(49))
	f.Fuzz(func(t *testing.T, seed uint64, slots uint16, n, faults, meanSlots, hits uint8, winLo, winHi uint16, nPersistent uint8, pFrom uint16) {
		if slots == 0 {
			slots = 1
		}
		cfg := FaultConfig{
			Seed: seed, Slots: int(slots), Faults: int(faults),
			MeanSlots: float64(meanSlots), Hits: int(hits),
			WindowStart: int(winLo), WindowEnd: int(winHi),
			PersistentFrom: int(pFrom),
		}
		for i := uint8(0); i < nPersistent; i++ {
			cfg.Persistent = append(cfg.Persistent, int32(i))
		}
		a := GenFaultSchedule(int(n), cfg)
		b := GenFaultSchedule(int(n), cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("nondeterministic generation")
		}
		if a.Len() != int(n) {
			t.Fatalf("Len = %d, want %d", a.Len(), n)
		}
		for i, fl := range a.Faults {
			for k, fault := range fl {
				if fault.Start < 0 || fault.End > a.Slots || fault.End <= fault.Start {
					t.Fatalf("instance %d fault %d out of bounds: %+v (Slots=%d)", i, k, fault, a.Slots)
				}
				if k > 0 && fl[k-1].Start > fault.Start {
					t.Fatalf("instance %d faults unsorted", i)
				}
				if fault.Kind <= FaultNone || fault.Kind >= faultKinds {
					t.Fatalf("invalid kind %d", fault.Kind)
				}
				if fault.Persistent() && fault.Kind == FaultFlap {
					t.Fatal("persistent flap generated")
				}
			}
			// At must agree with a brute-force scan over the list.
			probe := func(slot int) {
				var want Fault
				var found bool
				for _, fault := range fl {
					if fault.Covers(slot) && (!found || fault.Start < want.Start ||
						(fault.Start == want.Start && (fault.End < want.End ||
							(fault.End == want.End && fault.Kind < want.Kind)))) {
						want, found = fault, true
					}
				}
				got, ok := a.At(i, slot)
				if ok != found || got != want {
					t.Fatalf("At(%d,%d) = %+v,%v; brute force %+v,%v", i, slot, got, ok, want, found)
				}
			}
			// Deterministic probe slots derived from the inputs.
			var h [8]byte
			binary.LittleEndian.PutUint64(h[:], seed+uint64(i))
			for _, s := range []int{0, int(slots) / 2, int(slots) - 1, int(h[0]) % int(slots)} {
				probe(s)
			}
		}
		for _, i := range a.PersistentInstances() {
			from := a.PersistentFrom(i)
			if from < 0 || from >= a.Slots {
				t.Fatalf("instance %d PersistentFrom = %d out of range", i, from)
			}
			if _, ok := a.At(i, a.Slots-1); !ok {
				t.Fatalf("persistent instance %d has no fault at the final slot", i)
			}
		}
	})
}
