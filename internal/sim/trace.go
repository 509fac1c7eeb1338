// Package sim implements the availability machinery of §4.4: per-instance
// probe traces at 5-minute resolution (the mnm.social record), downtime
// statistics, continuous-outage extraction (Fig 10), per-day downtime
// (Fig 8), AS-wide simultaneous-failure detection (Table 1) and
// certificate-expiry outage attribution (Fig 9b).
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Trace is a fixed-length availability record for one instance: n probe
// slots, stored as the sorted list of its maximal down-runs. Runs are
// disjoint and never touch (a run's end is below the next run's start),
// so each outage is one entry. The mnm.social record has about one outage
// edge per 580 slots, which is what makes runs smaller than a bitset. The
// zero value is unusable; build with NewTrace.
type Trace struct {
	n    int
	runs []run
}

// run is one maximal outage, slots [start, end).
type run struct{ start, end int32 }

// NewTrace returns an all-up trace with n slots. Slots are int32, so n is
// at most math.MaxInt32.
func NewTrace(n int) *Trace {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sim: trace length %d outside [0,%d]", n, math.MaxInt32))
	}
	return &Trace{n: n}
}

// N returns the number of slots.
func (t *Trace) N() int { return t.n }

// after returns the index of the first run that ends after slot i. The
// search keeps the answer in [base, base+n] and halves n with a masked
// add, not a branch: the generator writes at random slots, so a branch
// on each probe would mispredict half the time. (end-i-1)>>63 is all ones
// exactly when end <= i, with i clamped so the difference cannot overflow.
func (t *Trace) after(i int) int {
	rs := t.runs
	if len(rs) == 0 {
		return 0
	}
	i = min(max(i, -1), math.MaxInt32)
	base, n := 0, len(rs)
	for n > 1 {
		half := n >> 1
		base += half & ((int(rs[base+half].end) - i - 1) >> 63)
		n -= half
	}
	return base + int(uint(int(rs[base].end)-i-1)>>63)
}

// overlapping returns the runs that share a slot with [from, to),
// unclipped.
func (t *Trace) overlapping(from, to int) []run {
	if from >= to {
		return nil
	}
	lo, hi := t.after(from), t.after(to-1)
	if hi < len(t.runs) && int(t.runs[hi].start) < to {
		hi++
	}
	return t.runs[lo:hi]
}

// clip returns r cut to the window [from, to) that selected it.
func (r run) clip(from, to int) (int, int) {
	return max(int(r.start), from), min(int(r.end), to)
}

// SetDown marks slot i as down.
func (t *Trace) SetDown(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("sim: slot %d out of range [0,%d)", i, t.n))
	}
	t.SetDownRange(i, i+1)
}

// SetDownRange marks slots [from, to) as down. Bounds are clamped. The
// runs that overlap or touch the range are replaced by one merged run: a
// binary search finds the first, and a walk the rest (a write is short
// beside the gaps between outages, so the walk is a step or two). A write
// that starts at or past the last run's start — the in-order walks of the
// monitor, CopyDown and Merge — touches no other run and costs O(1).
func (t *Trace) SetDownRange(from, to int) {
	from, to = max(from, 0), min(to, t.n)
	if from >= to {
		return
	}
	if k := len(t.runs) - 1; k < 0 || int(t.runs[k].start) <= from {
		if k >= 0 && from <= int(t.runs[k].end) {
			t.runs[k].end = int32(max(to, int(t.runs[k].end)))
		} else {
			t.runs = append(t.runs, run{int32(from), int32(to)})
		}
		return
	}
	i := t.after(from - 1) // first run ending at or after from
	j := i
	for j < len(t.runs) && int(t.runs[j].start) <= to {
		j++
	}
	if i == j {
		t.runs = slices.Insert(t.runs, i, run{int32(from), int32(to)})
		return
	}
	t.runs[i] = run{int32(min(from, int(t.runs[i].start))), int32(max(to, int(t.runs[j-1].end)))}
	t.runs = slices.Delete(t.runs, i+1, j)
}

// IsDown reports whether slot i is down. Out-of-range slots report false.
func (t *Trace) IsDown(i int) bool {
	if i < 0 || i >= t.n {
		return false
	}
	k := t.after(i)
	return k < len(t.runs) && int(t.runs[k].start) <= i
}

// CountDown returns the number of down slots in [from, to). Bounds clamp.
func (t *Trace) CountDown(from, to int) int {
	count := 0
	for _, r := range t.overlapping(from, to) {
		s, e := r.clip(from, to)
		count += e - s
	}
	return count
}

// DownFraction returns the fraction of down slots in [from, to), or 0 for an
// empty window.
func (t *Trace) DownFraction(from, to int) float64 {
	from, to = max(from, 0), min(to, t.n)
	if from >= to {
		return 0
	}
	return float64(t.CountDown(from, to)) / float64(to-from)
}

// Outage is a maximal run of consecutive down slots, [Start, End).
type Outage struct {
	Start, End int
}

// Slots returns the outage length in slots.
func (o Outage) Slots() int { return o.End - o.Start }

// Outages returns the maximal down-runs intersecting [from, to), clipped to
// the window, or nil if there are none.
func (t *Trace) Outages(from, to int) []Outage {
	rs := t.overlapping(from, to)
	if len(rs) == 0 {
		return nil
	}
	outs := make([]Outage, len(rs))
	for k, r := range rs {
		outs[k].Start, outs[k].End = r.clip(from, to)
	}
	return outs
}

// CopyDown marks down in t every slot that is down in src's window
// [from, to), shifted so that the window starts at slot at: one
// SetDownRange per down-run of src. Bounds clamp on both traces.
func (t *Trace) CopyDown(src *Trace, from, to, at int) {
	for _, r := range src.overlapping(from, to) {
		s, e := r.clip(from, to)
		t.SetDownRange(at+s-from, at+e-from)
	}
}

// window returns a new trace of slots [from, to) of t, which must lie
// within [0, n).
func (t *Trace) window(from, to int) *Trace {
	rs := t.overlapping(from, to)
	w := &Trace{n: to - from}
	if len(rs) > 0 {
		w.runs = make([]run, len(rs))
		for k, r := range rs {
			s, e := r.clip(from, to)
			w.runs[k] = run{int32(s - from), int32(e - from)}
		}
	}
	return w
}

// intersect returns the runs down in both a and b: a merge of the two
// sorted lists. The pieces are maximal because a and b are: two slots in
// a row that are down in both lie in one run of each.
func intersect(a, b []run) []run {
	var out []run
	for len(a) > 0 && len(b) > 0 {
		if s, e := max(a[0].start, b[0].start), min(a[0].end, b[0].end); s < e {
			out = append(out, run{s, e})
		}
		if a[0].end < b[0].end {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
	return out
}

// MarshalBinary encodes the trace (length + packed words).
func (t *Trace) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(make([]byte, 0, t.EncodedSize())), nil
}

// EncodedSize returns the exact length of the MarshalBinary encoding.
func (t *Trace) EncodedSize() int { return 8 + 8*((t.n+63)/64) }

// AppendBinary appends the MarshalBinary encoding of t to dst and returns
// the extended slice — the allocation-free form used when many traces are
// packed into one buffer (the columnar world file writes thousands per
// section). The encoding is the slot bitset, one little-endian uint64 per
// 64 slots, bit i set when slot i is down; it is written straight from
// the runs, a masked store at each run's end words and a whole one between.
func (t *Trace) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.n))
	at := len(dst)
	dst = slices.Grow(dst, t.EncodedSize()-8)[:at+t.EncodedSize()-8]
	words := dst[at:]
	clear(words)
	or := func(w int, mask uint64) {
		b := words[8*w:]
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)|mask)
	}
	for _, r := range t.runs {
		first, last := int(r.start)>>6, int(r.end-1)>>6
		head := ^uint64(0) << (uint(r.start) & 63)
		tail := ^uint64(0) >> (63 - uint(r.end-1)&63)
		if first == last {
			or(first, head&tail)
			continue
		}
		or(first, head)
		for w := first + 1; w < last; w++ {
			binary.LittleEndian.PutUint64(words[8*w:], ^uint64(0))
		}
		or(last, tail)
	}
	return dst
}

// UnmarshalBinary decodes a trace produced by MarshalBinary. It rejects a
// length past math.MaxInt32 and a down bit at or past the length, neither
// of which MarshalBinary writes. One walk over the words finds the runs: a
// run starts at a set bit after a clear one and ends at a clear bit after
// a set one, and a word equal to its predecessor's last bit holds neither.
// The runs gather in a stack buffer, then move to a list of exactly their
// number.
func (t *Trace) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return errors.New("sim: trace too short")
	}
	n := binary.LittleEndian.Uint64(data)
	if n > math.MaxInt32 {
		return fmt.Errorf("sim: trace length %d past %d slots", n, math.MaxInt32)
	}
	words := data[8:]
	if uint64(len(words)) != 8*((n+63)/64) {
		return fmt.Errorf("sim: trace length mismatch: n=%d bytes=%d", n, len(data))
	}
	if tail := n & 63; tail != 0 && binary.LittleEndian.Uint64(words[len(words)-8:])>>tail != 0 {
		return fmt.Errorf("sim: trace of %d slots has down slots past its end", n)
	}
	var buf [256]run
	runs := buf[:0]
	var start, slot int32
	var carry uint64 // the previous word's last bit
	for ; len(words) >= 8; words, slot = words[8:], slot+64 {
		w := binary.LittleEndian.Uint64(words)
		if w == -carry {
			continue
		}
		prev := w<<1 | carry
		starts := w &^ prev
		for edges := starts | prev&^w; edges != 0; edges &= edges - 1 {
			b := bits.TrailingZeros64(edges)
			if starts&(1<<b) != 0 {
				start = slot + int32(b)
			} else {
				runs = append(runs, run{start, slot + int32(b)})
			}
		}
		carry = w >> 63
	}
	if carry != 0 {
		runs = append(runs, run{start, int32(n)})
	}
	t.n, t.runs = int(n), nil
	if len(runs) > 0 {
		t.runs = append(make([]run, 0, len(runs)), runs...)
	}
	return nil
}
