package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The bit-at-a-time loops Outages, SetDownRange, TraceSet.Window and
// dataset.Merge ran before the word-wise scanner, kept as references.

func refOutages(t *Trace, from, to int) []Outage {
	if from < 0 {
		from = 0
	}
	if to > t.n {
		to = t.n
	}
	var outs []Outage
	i := from
	for i < to {
		if !t.IsDown(i) {
			i++
			continue
		}
		start := i
		for i < to && t.IsDown(i) {
			i++
		}
		outs = append(outs, Outage{Start: start, End: i})
	}
	return outs
}

func refSetDownRange(t *Trace, from, to int) {
	if from < 0 {
		from = 0
	}
	if to > t.n {
		to = t.n
	}
	for i := from; i < to; i++ {
		t.SetDown(i)
	}
}

func refCopyDown(dst, src *Trace, from, to, at int) {
	for s := from; s < to; s++ {
		if src.IsDown(s) && at+s-from >= 0 && at+s-from < dst.n {
			dst.SetDown(at + s - from)
		}
	}
}

func cloneTrace(t *Trace) *Trace {
	return &Trace{n: t.n, words: slices.Clone(t.words)}
}

// checkRuns holds the three word-wise operations to their references on one
// trace and one window [from, to), copying to offset at of a fresh trace of
// dstN slots.
func checkRuns(t *testing.T, tr *Trace, from, to, dstN, at int) {
	t.Helper()
	if got, want := tr.Outages(from, to), refOutages(tr, from, to); !slices.Equal(got, want) {
		t.Fatalf("n=%d Outages(%d,%d) = %v, slot by slot %v", tr.n, from, to, got, want)
	}
	got, want := cloneTrace(tr), cloneTrace(tr)
	got.SetDownRange(from, to)
	refSetDownRange(want, from, to)
	if !slices.Equal(got.words, want.words) {
		t.Fatalf("n=%d SetDownRange(%d,%d) = %x, slot by slot %x", tr.n, from, to, got.words, want.words)
	}
	got, want = NewTrace(dstN), NewTrace(dstN)
	got.CopyDown(tr, from, to, at)
	refCopyDown(want, tr, from, to, at)
	if !slices.Equal(got.words, want.words) {
		t.Fatalf("n=%d CopyDown(%d,%d → %d of %d) = %x, slot by slot %x", tr.n, from, to, at, dstN, got.words, want.words)
	}
}

func TestTraceRunsMatchSlotBySlot(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 4))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 320, 500} {
		fills := map[string]func(i int) bool{
			"all up":       func(int) bool { return false },
			"all down":     func(int) bool { return true },
			"alternating":  func(i int) bool { return i%2 == 0 },
			"word edges":   func(i int) bool { return i%64 == 0 || i%64 == 63 },
			"long runs":    func(i int) bool { return (i/70)%2 == 1 },
			"sparse":       func(int) bool { return r.IntN(40) == 0 },
			"dense":        func(int) bool { return r.IntN(40) != 0 },
			"coin":         func(int) bool { return r.IntN(2) == 0 },
			"up then down": func(i int) bool { return i >= n/2 },
		}
		for name, down := range fills {
			tr := NewTrace(n)
			for i := 0; i < n; i++ {
				if down(i) {
					tr.SetDown(i)
				}
			}
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				// Every window over the trace's small edge cases, plus
				// windows outside it on both sides.
				edges := []int{-3, 0, 1, n / 3, 62, 63, 64, 65, 127, 128, n - 65, n - 64, n - 1, n, n + 5}
				for _, from := range edges {
					for _, to := range edges {
						checkRuns(t, tr, from, to, n+70, 37)
						checkRuns(t, tr, from, to, n/2, 0)
					}
				}
			})
		}
	}
}

// A loaded trace may carry set bits past n in its last word; no scan may
// report them.
func TestTraceRunsIgnoreBitsPastN(t *testing.T) {
	tr := &Trace{n: 70, words: []uint64{0, ^uint64(0)}}
	if got, want := tr.Outages(0, 100), []Outage{{Start: 64, End: 70}}; !slices.Equal(got, want) {
		t.Fatalf("Outages = %v, want %v", got, want)
	}
	tr.words[1] = ^uint64(63) // slots 70..127
	if got := tr.Outages(0, 70); got != nil {
		t.Fatalf("Outages = %v over a trace that is down only past its end", got)
	}
}

// FuzzTraceRuns takes the trace's bits from the input, so the fuzzer steers
// run lengths and word alignment directly.
func FuzzTraceRuns(f *testing.F) {
	f.Add([]byte{}, 0, 0, 0, 0, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 7, 1, 70, 80, 3)
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0xf0}, 0, 60, 68, 10, -2)
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa}, 3, 64, 128, 200, 64)
	f.Fuzz(func(t *testing.T, bits []byte, trim, from, to, dstN, at int) {
		const lim = 1 << 14
		if len(bits) > 1<<10 || dstN < 0 || dstN > lim || min(at, from, to) < -lim || max(at, from, to) > lim {
			t.Skip()
		}
		n := len(bits) * 8
		if trim > 0 {
			n -= min(trim%8, n)
		}
		tr := NewTrace(n)
		for i := 0; i < n; i++ {
			if bits[i>>3]&(1<<(i&7)) != 0 {
				tr.SetDown(i)
			}
		}
		checkRuns(t, tr, from, to, dstN, at)
	})
}
