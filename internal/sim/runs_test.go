package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// bitTrace is the one-bit-per-slot trace the run list replaced, kept as the
// reference every run operation is held to: bit i of words is set when
// slot i is down.
type bitTrace struct {
	n     int
	words []uint64
}

func newBitTrace(n int) *bitTrace { return &bitTrace{n: n, words: make([]uint64, (n+63)/64)} }

func (b *bitTrace) setDown(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

func (b *bitTrace) setDownRange(from, to int) {
	for i := max(from, 0); i < min(to, b.n); i++ {
		b.setDown(i)
	}
}

func (b *bitTrace) isDown(i int) bool {
	return i >= 0 && i < b.n && b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (b *bitTrace) countDown(from, to int) int {
	count := 0
	for i := max(from, 0); i < min(to, b.n); i++ {
		if b.isDown(i) {
			count++
		}
	}
	return count
}

func (b *bitTrace) downFraction(from, to int) float64 {
	from, to = max(from, 0), min(to, b.n)
	if from >= to {
		return 0
	}
	return float64(b.countDown(from, to)) / float64(to-from)
}

func (b *bitTrace) outages(from, to int) []Outage {
	var outs []Outage
	for i := max(from, 0); i < min(to, b.n); {
		if !b.isDown(i) {
			i++
			continue
		}
		start := i
		for i < min(to, b.n) && b.isDown(i) {
			i++
		}
		outs = append(outs, Outage{Start: start, End: i})
	}
	return outs
}

func (b *bitTrace) copyDown(src *bitTrace, from, to, at int) {
	for s := from; s < to; s++ {
		if src.isDown(s) && at+s-from >= 0 && at+s-from < b.n {
			b.setDown(at + s - from)
		}
	}
}

func (b *bitTrace) and(o *bitTrace) *bitTrace {
	out := newBitTrace(b.n)
	for w := range out.words {
		out.words[w] = b.words[w] & o.words[w]
	}
	return out
}

// encode is the world-file encoding of the runs the bitset's slots make:
// n, the run count, then each run's gap since the last one's end and its
// length.
func (b *bitTrace) encode() []byte {
	outs := b.outages(0, b.n)
	out := binary.AppendUvarint(nil, uint64(b.n))
	out = binary.AppendUvarint(out, uint64(len(outs)))
	end := 0
	for _, o := range outs {
		out = binary.AppendUvarint(out, uint64(o.Start-end))
		out = binary.AppendUvarint(out, uint64(o.Slots()))
		end = o.End
	}
	return out
}

// checkShape fails unless tr's runs are sorted, disjoint, non-touching and
// inside [0, n): the form every operation relies on.
func checkShape(t *testing.T, tr *Trace) {
	t.Helper()
	for k, r := range tr.runs {
		if r.start < 0 || r.start >= r.end || int(r.end) > tr.n || k > 0 && tr.runs[k-1].end >= r.start {
			t.Fatalf("n=%d run %d of %v is not a maximal run after its predecessor", tr.n, k, tr.runs)
		}
	}
}

// checkAgainstBits holds tr to its bitset reference on every read, on the
// window [from, to) and the days around it, and on a copy of that window to offset at of a fresh
// trace of dstN slots.
func checkAgainstBits(t *testing.T, tr *Trace, ref *bitTrace, from, to, dstN, at int) {
	t.Helper()
	checkShape(t, tr)
	for i := -1; i <= tr.n; i++ {
		if tr.IsDown(i) != ref.isDown(i) {
			t.Fatalf("n=%d IsDown(%d) = %v, bitset %v", tr.n, i, tr.IsDown(i), ref.isDown(i))
		}
	}
	if got, want := tr.CountDown(from, to), ref.countDown(from, to); got != want {
		t.Fatalf("n=%d CountDown(%d,%d) = %d, bitset %d", tr.n, from, to, got, want)
	}
	if got, want := tr.DownFraction(from, to), ref.downFraction(from, to); got != want {
		t.Fatalf("n=%d DownFraction(%d,%d) = %g, bitset %g", tr.n, from, to, got, want)
	}
	if got, want := tr.Outages(from, to), ref.outages(from, to); !slices.Equal(got, want) {
		t.Fatalf("n=%d Outages(%d,%d) = %v, bitset %v", tr.n, from, to, got, want)
	}
	for _, spd := range []int{1, 7, 64} {
		fromDay, toDay := from/spd, to/spd+1
		got := (&TraceSet{SlotsPerDay: spd, Traces: []*Trace{tr}}).AppendDailyDowntime(nil, 0, fromDay, toDay)
		for d := fromDay; d < toDay; d++ {
			if want := ref.downFraction(d*spd, (d+1)*spd); got[d-fromDay] != want {
				t.Fatalf("n=%d day %d of %d slots: AppendDailyDowntime %g, bitset %g", tr.n, d, spd, got[d-fromDay], want)
			}
		}
	}
	enc := ref.encode()
	if got := tr.AppendBinary([]byte{7}); !bytes.Equal(got[1:], enc) || got[0] != 7 {
		t.Fatalf("n=%d encoding = %x, bitset %x", tr.n, got, enc)
	}
	if size := tr.BinarySize(); size != len(enc) {
		t.Fatalf("n=%d BinarySize = %d, encoding is %d bytes", tr.n, size, len(enc))
	}
	back, k, err := DecodeTrace(append(enc, 0xff))
	if err != nil {
		t.Fatalf("n=%d encoding %x rejected: %v", tr.n, enc, err)
	}
	if k != len(enc) || back.n != tr.n || !slices.Equal(back.runs, tr.runs) || cap(back.runs) != len(back.runs) {
		t.Fatalf("n=%d decoded %d of %d bytes into runs %v (cap %d), want %v", tr.n, k, len(enc), back.runs, cap(back.runs), tr.runs)
	}
	got, want := NewTrace(dstN), newBitTrace(dstN)
	got.CopyDown(tr, from, to, at)
	want.copyDown(ref, from, to, at)
	checkShape(t, got)
	if enc := got.AppendBinary(nil); !bytes.Equal(enc, want.encode()) {
		t.Fatalf("n=%d CopyDown(%d,%d → %d of %d) = %v, bitset %x", tr.n, from, to, at, dstN, got.runs, want.words)
	}
	if 0 <= from && from <= to && to <= tr.n {
		w := (&TraceSet{Traces: []*Trace{tr}}).Window(from, to).Traces[0]
		wantW := newBitTrace(to - from)
		wantW.copyDown(ref, from, to, 0)
		checkShape(t, w)
		if enc := w.AppendBinary(nil); !bytes.Equal(enc, wantW.encode()) {
			t.Fatalf("n=%d Window(%d,%d) = %v, bitset %x", tr.n, from, to, w.runs, wantW.words)
		}
	}
}

// checkSimultaneous holds SimultaneousDown over two traces of one length to
// the AND of their bitsets.
func checkSimultaneous(t *testing.T, a, b *Trace, refA, refB *bitTrace) {
	t.Helper()
	ts := &TraceSet{Traces: []*Trace{a, b}}
	for _, ids := range [][]int32{{0, 1}, {1, 0}, {0}, {1, 1}} {
		got := ts.SimultaneousDown(ids)
		want := []*bitTrace{refA, refB}[ids[0]]
		for _, id := range ids[1:] {
			want = want.and([]*bitTrace{refA, refB}[id])
		}
		checkShape(t, got)
		if enc := got.AppendBinary(nil); !bytes.Equal(enc, want.encode()) {
			t.Fatalf("n=%d SimultaneousDown(%v) = %v, bitset %x", a.n, ids, got.runs, want.words)
		}
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
			tr, ref := NewTrace(n), newBitTrace(n)
			for i := 0; i < n; i++ {
				if down(i) {
					tr.SetDown(i)
					ref.setDown(i)
				}
			}
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				// Every window over the trace's small edge cases, plus
				// windows outside it on both sides.
				edges := []int{-3, 0, 1, n / 3, 62, 63, 64, 65, 127, 128, n - 65, n - 64, n - 1, n, n + 5}
				for _, from := range edges {
					for _, to := range edges {
						checkAgainstBits(t, tr, ref, from, to, n+70, 37)
						checkAgainstBits(t, tr, ref, from, to, n/2, 0)
						// SetDownRange over the window, written into copies.
						got, want := NewTrace(n), newBitTrace(n)
						got.CopyDown(tr, 0, n, 0)
						want.copyDown(ref, 0, n, 0)
						got.SetDownRange(from, to)
						want.setDownRange(from, to)
						checkAgainstBits(t, got, want, 0, n, n, 0)
					}
				}
			})
		}
	}
}

// A world file's trace is its runs; DecodeTrace refuses every encoding of
// something that is not a trace, and names what is wrong.
func TestDecodeTraceRejects(t *testing.T) {
	enc := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	tr, k, err := DecodeTrace(enc(70, 2, 0, 3, 61, 6))
	if err != nil || k != 6 {
		t.Fatalf("slots 0..2 and 64..69 down: %d bytes, %v", k, err)
	}
	if got, want := tr.Outages(0, 100), []Outage{{Start: 0, End: 3}, {Start: 64, End: 70}}; !slices.Equal(got, want) {
		t.Fatalf("Outages = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"length past int32", "trace length 2147483648 past 2147483647 slots", enc(math.MaxInt32+1, 0)},
		{"length wraps to -64", "trace length 18446744073709551552 past", enc(math.MaxUint64-63, 0)},
		{"more runs than bytes", "2 runs cannot fit 70 slots in 3 bytes", enc(70, 2, 0, 3, 61)},
		{"more runs than slots", "3 runs cannot fit 4 slots", enc(4, 3, 0, 1, 1, 1, 1, 1)},
		{"zero-length run", "run 1 is empty", enc(70, 2, 0, 3, 1, 0)},
		{"touching runs", "run 1 touches the one before it", enc(70, 2, 0, 3, 0, 6)},
		{"run past n", "run 1 ends past slot 70", enc(70, 2, 0, 3, 61, 7)},
		{"gap past n", "run 0 ends past slot 70", enc(70, 1, math.MaxUint64, 1)},
		{"truncated run", "trace truncated at byte 3", append(enc(70, 1, 64), 0x86)},
		{"no run count", "trace truncated at byte 1", enc(70)},
		{"empty", "trace truncated at byte 0", nil},
	} {
		if _, _, err := DecodeTrace(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeTrace(%x) = %v, want an error with %q", tc.name, tc.b, err, tc.want)
		}
	}
}

// A run count the bytes or the slots cannot hold is refused before the
// run list is allocated: a 2^29-run claim in ten bytes costs the error and
// nothing else, not the 4 GiB its runs would take, and so does a claim of
// one run more than 2^20 slots hold, with bytes enough for it.
func TestDecodeTraceRefusesBeforeAllocating(t *testing.T) {
	for _, tc := range []struct{ n, runs, pad uint64 }{
		{math.MaxInt32, 1 << 29, 10},
		{1 << 20, 1<<19 + 1, 1<<20 + 2},
	} {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, tc.n), tc.runs)
		b = append(b, make([]byte, tc.pad)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeTrace(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d runs in %d slots accepted", tc.runs, tc.n)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<10 {
			t.Fatalf("%d runs in %d slots: %d bytes allocated before the refusal", tc.runs, tc.n, grew)
		}
	}
}

// FuzzDecodeTrace feeds arbitrary bytes to the decoder: it refuses them, or
// returns a trace of the runs' shape that re-encodes to bytes it decodes
// to the same trace.
func FuzzDecodeTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{70, 2, 0, 3, 61, 6})
	f.Add([]byte{70, 2, 0, 3, 0, 6})
	f.Add([]byte{4, 2, 0, 1, 1, 1, 9})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x08, 1, 0xff, 0xff, 0xff, 0xff, 0x07, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, k, err := DecodeTrace(b)
		if err != nil {
			return
		}
		if k <= 0 || k > len(b) {
			t.Fatalf("took %d of %d bytes", k, len(b))
		}
		checkShape(t, tr)
		enc := tr.AppendBinary(nil)
		if size := tr.BinarySize(); size != len(enc) {
			t.Fatalf("%x: BinarySize = %d, encoding is %d bytes", b[:k], size, len(enc))
		}
		back, k2, err := DecodeTrace(enc)
		if err != nil || k2 != len(enc) || back.n != tr.n || !slices.Equal(back.runs, tr.runs) || cap(back.runs) != len(back.runs) {
			t.Fatalf("%x decoded to n=%d %v, which re-encodes to %x: %v", b[:k], tr.n, tr.runs, enc, err)
		}
	})
}

// FuzzTraceRuns takes the trace's bits from the input, so the fuzzer steers
// run lengths and word alignment directly. The trace is written by SetDown
// in slot order, the monitor's walk.
func FuzzTraceRuns(f *testing.F) {
	f.Add([]byte{}, 0, 0, 0, 0, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 7, 1, 70, 80, 3)
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0xf0}, 0, 60, 68, 10, -2)
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa}, 3, 64, 128, 200, 64)
	f.Fuzz(func(t *testing.T, data []byte, trim, from, to, dstN, at int) {
		const lim = 1 << 14
		if len(data) > 1<<10 || dstN < 0 || dstN > lim || min(at, from, to) < -lim || max(at, from, to) > lim {
			t.Skip()
		}
		n := len(data) * 8
		if trim > 0 {
			n -= min(trim%8, n)
		}
		tr, ref := NewTrace(n), newBitTrace(n)
		for i := 0; i < n; i++ {
			if data[i>>3]&(1<<(i&7)) != 0 {
				tr.SetDown(i)
				ref.setDown(i)
			}
		}
		checkAgainstBits(t, tr, ref, from, to, dstN, at)
		// The same bits as a second trace, shifted by one slot, so the
		// intersection cuts every run.
		b, refB := NewTrace(n), newBitTrace(n)
		b.CopyDown(tr, 0, n, 1)
		refB.copyDown(ref, 0, n, 1)
		checkSimultaneous(t, tr, b, ref, refB)
	})
}

// FuzzTraceWrites applies an input-chosen sequence of SetDown and
// SetDownRange writes, overlapping and touching, in any order, to two
// traces of n slots and to their bitsets, then holds every read, the
// encoding and SimultaneousDown to the bitsets. Each write is five bytes:
// the trace it goes to and its kind, a start, and a length.
func FuzzTraceWrites(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(100), []byte{0, 10, 0, 5, 0, 0, 20, 0, 5, 0, 0, 15, 0, 5, 0}) // three runs that touch into one
	f.Add(uint16(130), []byte{2, 63, 0, 0, 0, 2, 64, 0, 0, 0, 2, 62, 0, 0, 0, 1, 0, 0, 130, 0})
	f.Add(uint16(300), []byte{0, 250, 0, 40, 0, 0, 10, 0, 30, 0, 0, 100, 0, 20, 0, 0, 5, 0, 200, 0, 1, 60, 0, 64, 1})
	f.Add(uint16(64), []byte{0, 255, 255, 90, 0, 3, 63, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nRaw uint16, ops []byte) {
		n := int(nRaw % 2048)
		trs := []*Trace{NewTrace(n), NewTrace(n)}
		refs := []*bitTrace{newBitTrace(n), newBitTrace(n)}
		for ; len(ops) >= 5; ops = ops[5:] {
			which, single := ops[0]&1, ops[0]&2 != 0
			from := int(int16(binary.LittleEndian.Uint16(ops[1:])))
			length := int(ops[3]) << (ops[4] & 7)
			tr, ref := trs[which], refs[which]
			if single {
				if from < 0 || from >= n {
					continue
				}
				tr.SetDown(from)
				ref.setDown(from)
			} else {
				tr.SetDownRange(from, from+length)
				ref.setDownRange(from, from+length)
			}
			checkShape(t, tr)
		}
		third := n / 3
		for k := range trs {
			checkAgainstBits(t, trs[k], refs[k], third, n-third, n+5, 3)
			checkAgainstBits(t, trs[k], refs[k], -1, n+1, n/2, -7)
		}
		checkSimultaneous(t, trs[0], trs[1], refs[0], refs[1])
	})
}
