package sim

import "testing"

func newTestSet() *TraceSet {
	// 3 instances, 2 days, 10 slots/day.
	ts := NewTraceSet(3, 2, 10)
	ts.Traces[0].SetDownRange(0, 5)   // instance 0 down first half of day 0
	ts.Traces[1].SetDownRange(3, 8)   // instance 1 overlaps 3..5
	ts.Traces[2].SetDownRange(10, 20) // instance 2 down whole day 1
	return ts
}

func TestTraceSetGeometry(t *testing.T) {
	ts := newTestSet()
	if ts.Len() != 3 || ts.Slots() != 20 {
		t.Fatalf("geometry: len=%d slots=%d", ts.Len(), ts.Slots())
	}
	lo, hi := ts.DaySlots(1)
	if lo != 10 || hi != 20 {
		t.Fatalf("DaySlots(1) = %d,%d", lo, hi)
	}
	empty := &TraceSet{}
	if empty.Slots() != 0 {
		t.Fatal("empty set should have zero slots")
	}
}

func TestDailyDowntime(t *testing.T) {
	ts := newTestSet()
	d := ts.AppendDailyDowntime(nil, 0, 0, 2)
	if d[0] != 0.5 || d[1] != 0 {
		t.Fatalf("daily = %v", d)
	}
	d = ts.AppendDailyDowntime(d[:1], 2, 0, 2)[1:]
	if d[0] != 0 || d[1] != 1 {
		t.Fatalf("daily = %v", d)
	}
}

func TestSimultaneousDown(t *testing.T) {
	ts := newTestSet()
	joint := ts.SimultaneousDown([]int32{0, 1})
	if got := joint.CountDown(0, 20); got != 2 { // slots 3,4
		t.Fatalf("joint down = %d, want 2", got)
	}
	if !joint.IsDown(3) || !joint.IsDown(4) || joint.IsDown(5) {
		t.Fatal("joint bits wrong")
	}
	// Single id is just a copy.
	solo := ts.SimultaneousDown([]int32{2})
	if solo.CountDown(0, 20) != 10 {
		t.Fatal("solo copy wrong")
	}
	// Mutating the copy must not affect the original.
	solo.SetDown(0)
	if ts.Traces[2].IsDown(0) {
		t.Fatal("SimultaneousDown aliases the original trace")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty ids")
		}
	}()
	ts.SimultaneousDown(nil)
}

func TestGroupFailures(t *testing.T) {
	ts := newTestSet()
	fails := GroupFailures(ts, []int32{0, 1}, 0, 20)
	if len(fails) != 1 || fails[0] != (Outage{3, 5}) {
		t.Fatalf("group failures = %v", fails)
	}
	if len(GroupFailures(ts, []int32{0, 2}, 0, 20)) != 0 {
		t.Fatal("no simultaneous window for 0 and 2")
	}
}

func TestOutageDayHelpers(t *testing.T) {
	o := Outage{Start: 25, End: 47}
	if OutageStartDay(o, 10) != 2 {
		t.Fatalf("start day = %d", OutageStartDay(o, 10))
	}
	if got := OutageDays(o, 10); got != 2.2 {
		t.Fatalf("days = %g", got)
	}
}

func TestAttributeToCertExpiry(t *testing.T) {
	outs := []Outage{
		{Start: 20, End: 25}, // day 2, offset 0 → cert (expiry day 2)
		{Start: 23, End: 30}, // day 2, offset 3 → beyond grace
		{Start: 40, End: 45}, // day 4, not an expiry day
	}
	cert, other := AttributeToCertExpiry(outs, []int{2}, 10, 2)
	if len(cert) != 1 || cert[0].Start != 20 {
		t.Fatalf("cert = %v", cert)
	}
	if len(other) != 2 {
		t.Fatalf("other = %v", other)
	}
	// No expiry days → everything is "other".
	cert, other = AttributeToCertExpiry(outs, nil, 10, 2)
	if len(cert) != 0 || len(other) != 3 {
		t.Fatal("empty expiry attribution wrong")
	}
}

func TestTraceSetRoundTrip(t *testing.T) {
	ts := newTestSet()
	b, err := ts.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back TraceSet
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || back.SlotsPerDay != 10 || back.Slots() != 20 {
		t.Fatal("round trip geometry mismatch")
	}
	for i := int32(0); i < 3; i++ {
		for s := 0; s < 20; s++ {
			if back.Traces[i].IsDown(s) != ts.Traces[i].IsDown(s) {
				t.Fatalf("bit mismatch at instance %d slot %d", i, s)
			}
		}
	}
	for _, bad := range [][]byte{nil, b[:10], b[:len(b)-1], append(append([]byte{}, b...), 1)} {
		if err := new(TraceSet).UnmarshalBinary(bad); err == nil {
			t.Fatalf("expected error for corrupted input of len %d", len(bad))
		}
	}
}

func TestTraceSetWindow(t *testing.T) {
	ts := NewTraceSet(2, 1, 10)
	ts.Traces[0].SetDownRange(2, 5)
	ts.Traces[1].SetDown(9)
	w := ts.Window(3, 10)
	if w.Len() != 2 || w.Slots() != 7 || w.SlotsPerDay != 10 {
		t.Fatalf("window geometry: len=%d slots=%d spd=%d", w.Len(), w.Slots(), w.SlotsPerDay)
	}
	if got := w.Traces[0].Outages(0, 7); len(got) != 1 || got[0] != (Outage{Start: 0, End: 2}) {
		t.Fatalf("window outages = %v, want clipped [0,2)", got)
	}
	if !w.Traces[1].IsDown(6) || w.Traces[1].CountDown(0, 7) != 1 {
		t.Fatal("window lost the final down slot")
	}
	// The source set is untouched and an empty window is legal.
	if ts.Slots() != 10 || ts.Traces[0].CountDown(0, 10) != 3 {
		t.Fatal("Window mutated its source")
	}
	if e := ts.Window(4, 4); e.Slots() != 0 {
		t.Fatal("empty window has slots")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range window did not panic")
		}
	}()
	ts.Window(3, 11)
}
