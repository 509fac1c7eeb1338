// Package sim implements the availability machinery of §4.4: per-instance
// probe traces at 5-minute resolution (the mnm.social record), downtime
// statistics, continuous-outage extraction (Fig 10), per-day downtime
// (Fig 8), AS-wide simultaneous-failure detection (Table 1) and
// certificate-expiry outage attribution (Fig 9b).
package sim

import (
	"encoding/binary"
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

// AppendBinary appends t's world-file encoding to dst and returns the
// extended slice: uvarints n and the run count, then for each run the gap
// since the previous run's end (since slot 0 for the first) and its length.
func (t *Trace) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.n))
	dst = binary.AppendUvarint(dst, uint64(len(t.runs)))
	var end int32
	for _, r := range t.runs {
		dst = binary.AppendUvarint(dst, uint64(r.start-end))
		dst = binary.AppendUvarint(dst, uint64(r.end-r.start))
		end = r.end
	}
	return dst
}

// BinarySize returns how many bytes AppendBinary appends for t.
func (t *Trace) BinarySize() int {
	size := uvarintLen(uint64(t.n)) + uvarintLen(uint64(len(t.runs)))
	var end int32
	for _, r := range t.runs {
		size += uvarintLen(uint64(r.start-end)) + uvarintLen(uint64(r.end-r.start))
		end = r.end
	}
	return size
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeTrace reads one AppendBinary encoding from the front of b and
// returns the trace and the bytes it took. It refuses what AppendBinary
// never writes: a length past math.MaxInt32, more runs than the bytes left
// could hold (two each) or than n slots could (ceil(n/2)), both before
// anything is allocated; a zero-length run, a gap of 0 after the first run
// (two runs that touch), and a run that ends past n. The runs go straight
// into a list of exactly their number.
func DecodeTrace(b []byte) (*Trace, int, error) {
	off := 0
	next := func() (uint64, error) {
		v, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return 0, fmt.Errorf("sim: trace truncated at byte %d", off)
		}
		off += k
		return v, nil
	}
	n, err := next()
	if err != nil {
		return nil, 0, err
	}
	if n > math.MaxInt32 {
		return nil, 0, fmt.Errorf("sim: trace length %d past %d slots", n, math.MaxInt32)
	}
	k, err := next()
	if err != nil {
		return nil, 0, err
	}
	if k > uint64(len(b)-off)/2 || k > (n+1)/2 {
		return nil, 0, fmt.Errorf("sim: %d runs cannot fit %d slots in %d bytes", k, n, len(b)-off)
	}
	t := &Trace{n: int(n)}
	if k > 0 {
		t.runs = make([]run, k)
	}
	end := uint64(0)
	for i := range t.runs {
		gap, err := next()
		if err != nil {
			return nil, 0, err
		}
		length, err := next()
		if err != nil {
			return nil, 0, err
		}
		switch {
		case length == 0:
			return nil, 0, fmt.Errorf("sim: run %d is empty", i)
		case gap == 0 && i > 0:
			return nil, 0, fmt.Errorf("sim: run %d touches the one before it", i)
		case gap > n-end || length > n-end-gap:
			return nil, 0, fmt.Errorf("sim: run %d ends past slot %d", i, n)
		}
		t.runs[i] = run{int32(end + gap), int32(end + gap + length)}
		end += gap + length
	}
	return t, off, nil
}
