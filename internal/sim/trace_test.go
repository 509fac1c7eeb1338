package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestTraceBasics(t *testing.T) {
	tr := NewTrace(100)
	if tr.N() != 100 {
		t.Fatalf("N = %d", tr.N())
	}
	if tr.IsDown(0) || tr.IsDown(99) {
		t.Fatal("new trace should be all up")
	}
	tr.SetDown(5)
	tr.SetDown(63)
	tr.SetDown(64)
	if !tr.IsDown(5) || !tr.IsDown(63) || !tr.IsDown(64) {
		t.Fatal("SetDown failed across word boundary")
	}
	if tr.IsDown(4) || tr.IsDown(6) {
		t.Fatal("neighbouring slots affected")
	}
	if tr.IsDown(-1) || tr.IsDown(100) {
		t.Fatal("out-of-range should report up")
	}
}

func TestTracePanics(t *testing.T) {
	tr := NewTrace(10)
	for _, i := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for slot %d", i)
				}
			}()
			tr.SetDown(i)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for negative length")
			}
		}()
		NewTrace(-1)
	}()
}

func TestSetDownRangeAndCount(t *testing.T) {
	tr := NewTrace(300)
	tr.SetDownRange(10, 20)
	tr.SetDownRange(60, 200) // spans multiple words
	if got := tr.CountDown(0, 300); got != 150 {
		t.Fatalf("CountDown = %d, want 150", got)
	}
	if got := tr.CountDown(15, 65); got != 10 {
		t.Fatalf("CountDown(15,65) = %d, want 10 (15..19 and 60..64)", got)
	}
	// Clamping.
	tr2 := NewTrace(10)
	tr2.SetDownRange(-5, 100)
	if got := tr2.CountDown(-10, 99); got != 10 {
		t.Fatalf("clamped count = %d, want 10", got)
	}
	if tr2.CountDown(5, 5) != 0 || tr2.CountDown(7, 3) != 0 {
		t.Fatal("empty/invalid windows should count 0")
	}
}

func TestDownFraction(t *testing.T) {
	tr := NewTrace(100)
	tr.SetDownRange(0, 25)
	if f := tr.DownFraction(0, 100); f != 0.25 {
		t.Fatalf("fraction = %g", f)
	}
	if f := tr.DownFraction(50, 50); f != 0 {
		t.Fatalf("empty window fraction = %g", f)
	}
}

func TestOutages(t *testing.T) {
	tr := NewTrace(50)
	tr.SetDownRange(3, 6)
	tr.SetDown(10)
	tr.SetDownRange(45, 50)
	outs := tr.Outages(0, 50)
	want := []Outage{{3, 6}, {10, 11}, {45, 50}}
	if len(outs) != len(want) {
		t.Fatalf("outages = %v", outs)
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("outages = %v, want %v", outs, want)
		}
	}
	if want[0].Slots() != 3 {
		t.Fatalf("Slots = %d", want[0].Slots())
	}
	// Window clipping splits a run at the boundary.
	clipped := tr.Outages(4, 46)
	if clipped[0] != (Outage{4, 6}) || clipped[len(clipped)-1] != (Outage{45, 46}) {
		t.Fatalf("clipped = %v", clipped)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace(130)
	tr.SetDown(0)
	tr.SetDown(129)
	tr.SetDownRange(64, 70)
	b := tr.AppendBinary(nil)
	back, k, err := DecodeTrace(b)
	if err != nil || k != len(b) {
		t.Fatalf("decoded %d of %d bytes: %v", k, len(b), err)
	}
	if back.N() != 130 || !back.IsDown(0) || !back.IsDown(129) || !back.IsDown(65) || back.IsDown(70) {
		t.Fatal("round trip mismatch")
	}
	if _, _, err := DecodeTrace(b[:len(b)-1]); err == nil {
		t.Fatal("expected error for truncated data")
	}
	if _, k, err := DecodeTrace(append(b, 0)); err != nil || k != len(b) {
		t.Fatalf("with a byte after it: decoded %d of %d bytes: %v", k, len(b), err)
	}
}

// Property: CountDown equals a naive slot-by-slot count.
func TestCountDownMatchesNaive(t *testing.T) {
	f := func(seed uint64, nRaw uint16, a, b uint16) bool {
		n := int(nRaw%500) + 1
		tr := NewTrace(n)
		r := rand.New(rand.NewPCG(seed, 7))
		for i := 0; i < n; i++ {
			if r.IntN(3) == 0 {
				tr.SetDown(i)
			}
		}
		from, to := int(a)%(n+1), int(b)%(n+1)
		if from > to {
			from, to = to, from
		}
		naive := 0
		for i := from; i < to; i++ {
			if tr.IsDown(i) {
				naive++
			}
		}
		return tr.CountDown(from, to) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: outages partition exactly the down slots.
func TestOutagesCoverDownSlots(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		tr := NewTrace(n)
		r := rand.New(rand.NewPCG(seed, 13))
		for i := 0; i < n; i++ {
			if r.IntN(2) == 0 {
				tr.SetDown(i)
			}
		}
		total := 0
		prevEnd := -1
		for _, o := range tr.Outages(0, n) {
			if o.Start >= o.End || o.Start <= prevEnd {
				return false // not maximal or overlapping
			}
			// Slot before/after must be up (maximality).
			if tr.IsDown(o.Start-1) || (o.End < n && tr.IsDown(o.End)) {
				return false
			}
			total += o.Slots()
			prevEnd = o.End
		}
		return total == tr.CountDown(0, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
