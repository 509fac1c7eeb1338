package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// encodeTraces is every trace of ts in its encoding, one after another.
func encodeTraces(ts *TraceSet) []byte {
	var b []byte
	for _, tr := range ts.Traces {
		b = tr.AppendBinary(b)
	}
	return b
}

func stormGroups(n, count int) [][]int32 {
	groups := make([][]int32, count)
	for i := 0; i < n; i++ {
		g := i % count
		groups[g] = append(groups[g], int32(i))
	}
	return groups
}

// stormsCoverExactly verifies the central overlay invariant: instance i is
// down at slot s iff some storm lists i as a member and covers s.
func stormsCoverExactly(t *testing.T, ts *TraceSet, storms []Storm) {
	t.Helper()
	want := make([]*Trace, ts.Len())
	for i := range want {
		want[i] = NewTrace(ts.Slots())
	}
	for _, st := range storms {
		for _, id := range st.Members {
			want[id].SetDownRange(st.Start, st.End)
		}
	}
	for i := range want {
		if !bytes.Equal(ts.Traces[i].AppendBinary(nil), want[i].AppendBinary(nil)) {
			t.Fatalf("trace %d does not match the storm list", i)
		}
	}
}

func TestCorrelatedOutagesDeterministic(t *testing.T) {
	cfg := StormConfig{
		Seed: 7, Slots: 2000, Storms: 3, MinSlots: 12, MeanSlots: 30,
		Participation: 0.6, WindowStart: 100, WindowEnd: 1900,
	}
	groups := stormGroups(50, 4)
	ts1, storms1 := GenCorrelatedOutages(50, groups, cfg)
	ts2, storms2 := GenCorrelatedOutages(50, groups, cfg)
	b1, b2 := encodeTraces(ts1), encodeTraces(ts2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different overlays")
	}
	if !reflect.DeepEqual(storms1, storms2) {
		t.Fatal("same seed produced different storm lists")
	}

	cfg2 := cfg
	cfg2.Seed = 8
	ts3, _ := GenCorrelatedOutages(50, groups, cfg2)
	if bytes.Equal(b1, encodeTraces(ts3)) {
		t.Fatal("different seeds produced identical overlays")
	}
}

// TestCorrelatedOutagesASWide checks the fully correlated shape: with
// Participation 1 every storm takes its whole group down simultaneously,
// so the group's SimultaneousDown signal reproduces each storm interval.
func TestCorrelatedOutagesASWide(t *testing.T) {
	const n = 40
	groups := stormGroups(n, 5)
	cfg := StormConfig{
		Seed: 3, Slots: 3000, Storms: 2, MinSlots: 24, MeanSlots: 48,
		Participation: 1, WindowStart: 500, WindowEnd: 2500,
	}
	ts, storms := GenCorrelatedOutages(n, groups, cfg)
	if len(storms) != 2*len(groups) {
		t.Fatalf("got %d storms, want %d", len(storms), 2*len(groups))
	}
	stormsCoverExactly(t, ts, storms)
	for _, st := range storms {
		if !reflect.DeepEqual(st.Members, groups[st.Group]) {
			t.Fatalf("storm in group %d has members %v, want the whole group %v",
				st.Group, st.Members, groups[st.Group])
		}
		if st.Start < cfg.WindowStart || st.End > cfg.WindowEnd {
			t.Fatalf("storm [%d,%d) escapes the window [%d,%d)",
				st.Start, st.End, cfg.WindowStart, cfg.WindowEnd)
		}
		if st.Slots() < cfg.MinSlots {
			t.Fatalf("storm lasts %d slots, want at least %d", st.Slots(), cfg.MinSlots)
		}
		// All members down exactly together over the storm: the Table 1
		// simultaneous-failure signal fires for the full interval.
		sim := ts.SimultaneousDown(st.Members)
		for s := st.Start; s < st.End; s++ {
			if !sim.IsDown(s) {
				t.Fatalf("group %d not simultaneously down at slot %d of its storm", st.Group, s)
			}
		}
	}
}

// TestCorrelatedOutagesParticipation checks the partial-correlation shape:
// member participation concentrates around the requested probability.
func TestCorrelatedOutagesParticipation(t *testing.T) {
	const n, groupCount = 400, 8
	groups := stormGroups(n, groupCount)
	cfg := StormConfig{
		Seed: 5, Slots: 2000, Storms: 4, MinSlots: 10, Participation: 0.5,
	}
	ts, storms := GenCorrelatedOutages(n, groups, cfg)
	stormsCoverExactly(t, ts, storms)
	joined, total := 0, 0
	for _, st := range storms {
		if len(st.Members) == 0 {
			t.Fatal("storm with no members")
		}
		group := groups[st.Group]
		memberSet := make(map[int32]bool, len(group))
		for _, id := range group {
			memberSet[id] = true
		}
		for _, id := range st.Members {
			if !memberSet[id] {
				t.Fatalf("storm member %d is not in group %d", id, st.Group)
			}
		}
		joined += len(st.Members)
		total += len(group)
	}
	frac := float64(joined) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("mean participation %.3f, want ≈0.5", frac)
	}
}

func TestCorrelatedOutagesIgnoresOutOfRangeIDs(t *testing.T) {
	groups := [][]int32{{-3, 1, 99}, {200, 201}}
	ts, storms := GenCorrelatedOutages(4, groups, StormConfig{Seed: 1, Slots: 100})
	if ts.Len() != 4 || ts.Slots() != 100 {
		t.Fatalf("overlay is %d × %d", ts.Len(), ts.Slots())
	}
	if len(storms) != 1 {
		t.Fatalf("got %d storms, want 1 (the all-invalid group is dropped)", len(storms))
	}
	if !reflect.DeepEqual(storms[0].Members, []int32{1}) {
		t.Fatalf("storm members %v, want [1]", storms[0].Members)
	}
}

// FuzzCorrelatedOutages holds the generator's invariants under arbitrary
// parameters: traces always have the configured length, every down slot is
// explained by a storm, and storms stay within the window with sorted,
// in-group members.
func FuzzCorrelatedOutages(f *testing.F) {
	f.Add(uint64(1), 20, 3, 2, 5, 10.0, 0.5, 0, 0)
	f.Add(uint64(42), 1, 1, 1, 1, 0.0, 1.0, 0, 0)
	f.Add(uint64(9), 100, 7, 5, 50, 200.0, 0.01, 300, 700)
	f.Fuzz(func(t *testing.T, seed uint64, n, groupCount, storms, minSlots int,
		meanSlots, participation float64, wlo, whi int) {
		if n < 0 || n > 300 || groupCount < 1 || groupCount > 32 {
			t.Skip()
		}
		if storms < 0 || storms > 16 || minSlots < 0 || minSlots > 2048 {
			t.Skip()
		}
		if meanSlots < 0 || meanSlots > 4096 || meanSlots != meanSlots {
			t.Skip()
		}
		if participation != participation { // NaN
			t.Skip()
		}
		const slots = 1024
		cfg := StormConfig{
			Seed: seed, Slots: slots, Storms: storms, MinSlots: minSlots,
			MeanSlots: meanSlots, Participation: participation,
			WindowStart: wlo, WindowEnd: whi,
		}
		groups := stormGroups(n, groupCount)
		ts, got := GenCorrelatedOutages(n, groups, cfg)
		if ts.Len() != n {
			t.Fatalf("overlay has %d traces, want %d", ts.Len(), n)
		}
		covered := make([]*Trace, n)
		for i := range covered {
			if ts.Traces[i].N() != slots {
				t.Fatalf("trace %d has %d slots, want %d", i, ts.Traces[i].N(), slots)
			}
			covered[i] = NewTrace(slots)
		}
		lo, hi := wlo, whi
		if lo < 0 {
			lo = 0
		}
		if hi <= 0 || hi > slots {
			hi = slots
		}
		for _, st := range got {
			if st.Group < 0 || st.Group >= groupCount {
				t.Fatalf("storm group %d out of range", st.Group)
			}
			if len(st.Members) == 0 {
				t.Fatal("storm with no members")
			}
			if hi > lo && (st.Start < lo || st.End > hi || st.Start >= st.End) {
				t.Fatalf("storm [%d,%d) escapes window [%d,%d)", st.Start, st.End, lo, hi)
			}
			inGroup := make(map[int32]bool, len(groups[st.Group]))
			for _, id := range groups[st.Group] {
				inGroup[id] = true
			}
			for i, id := range st.Members {
				if !inGroup[id] {
					t.Fatalf("member %d not in group %d", id, st.Group)
				}
				if i > 0 && st.Members[i-1] >= id {
					t.Fatal("storm members not sorted ascending")
				}
				covered[id].SetDownRange(st.Start, st.End)
			}
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(ts.Traces[i].AppendBinary(nil), covered[i].AppendBinary(nil)) {
				t.Fatalf("trace %d has down slots not explained by the storm list", i)
			}
		}
	})
}
