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
	"math/bits"
)

// Trace is a fixed-length availability record for one instance: one bit per
// probe slot, set when the instance was DOWN at that slot. The zero value is
// unusable; build with NewTrace.
type Trace struct {
	n     int
	words []uint64
}

// NewTrace returns an all-up trace with n slots.
func NewTrace(n int) *Trace {
	if n < 0 {
		panic("sim: negative trace length")
	}
	return &Trace{n: n, words: make([]uint64, (n+63)/64)}
}

// N returns the number of slots.
func (t *Trace) N() int { return t.n }

// SetDown marks slot i as down.
func (t *Trace) SetDown(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("sim: slot %d out of range [0,%d)", i, t.n))
	}
	t.words[i>>6] |= 1 << (uint(i) & 63)
}

// SetDownRange marks slots [from, to) as down. Bounds are clamped. The two
// end words take a masked store and every word between them a whole one.
func (t *Trace) SetDownRange(from, to int) {
	if from < 0 {
		from = 0
	}
	if to > t.n {
		to = t.n
	}
	if from >= to {
		return
	}
	first, last := from>>6, (to-1)>>6
	head := ^uint64(0) << (uint(from) & 63)
	tail := ^uint64(0) >> (63 - uint(to-1)&63)
	if first == last {
		t.words[first] |= head & tail
		return
	}
	t.words[first] |= head
	for w := first + 1; w < last; w++ {
		t.words[w] = ^uint64(0)
	}
	t.words[last] |= tail
}

// IsDown reports whether slot i is down. Out-of-range slots report false.
func (t *Trace) IsDown(i int) bool {
	if i < 0 || i >= t.n {
		return false
	}
	return t.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// CountDown returns the number of down slots in [from, to). Bounds clamp.
// The two end words are masked as in SetDownRange, and every word is one
// population count.
func (t *Trace) CountDown(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > t.n {
		to = t.n
	}
	if from >= to {
		return 0
	}
	first, last := from>>6, (to-1)>>6
	head := ^uint64(0) << (uint(from) & 63)
	tail := ^uint64(0) >> (63 - uint(to-1)&63)
	if first == last {
		return bits.OnesCount64(t.words[first] & head & tail)
	}
	count := bits.OnesCount64(t.words[first]&head) + bits.OnesCount64(t.words[last]&tail)
	for _, w := range t.words[first+1 : last] {
		count += bits.OnesCount64(w)
	}
	return count
}

// DownFraction returns the fraction of down slots in [from, to), or 0 for an
// empty window.
func (t *Trace) DownFraction(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > t.n {
		to = t.n
	}
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
// the window.
func (t *Trace) Outages(from, to int) []Outage {
	if from < 0 {
		from = 0
	}
	if to > t.n {
		to = t.n
	}
	var outs []Outage
	for i := from; i < to; {
		start := t.next(i, to, true)
		if start == to {
			break
		}
		i = t.next(start, to, false)
		outs = append(outs, Outage{Start: start, End: i})
	}
	return outs
}

// CopyDown marks down in t every slot that is down in src's window
// [from, to), shifted so that the window starts at slot at: one
// SetDownRange per down-run of src. Bounds clamp on both traces.
func (t *Trace) CopyDown(src *Trace, from, to, at int) {
	for _, o := range src.Outages(from, to) {
		t.SetDownRange(at+o.Start-from, at+o.End-from)
	}
}

// next returns the first slot in [i, to) whose down bit equals down, or to
// if there is none; 0 <= i and to <= t.n. It reads a word at a time: the
// slots below i are masked off the first word, and the lowest surviving
// bit of the first non-zero word is the answer.
func (t *Trace) next(i, to int, down bool) int {
	if i >= to {
		return to
	}
	var flip uint64 // xor turns "first clear bit" into "first set bit"
	if !down {
		flip = ^uint64(0)
	}
	w := i >> 6
	word := (t.words[w] ^ flip) &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		w++
		if w<<6 >= to {
			return to
		}
		word = t.words[w] ^ flip
	}
	return min(w<<6+bits.TrailingZeros64(word), to)
}

// MarshalBinary encodes the trace (length + packed words).
func (t *Trace) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(make([]byte, 0, t.EncodedSize())), nil
}

// EncodedSize returns the exact length of the MarshalBinary encoding.
func (t *Trace) EncodedSize() int { return 8 + 8*len(t.words) }

// AppendBinary appends the MarshalBinary encoding of t to dst and returns
// the extended slice — the allocation-free form used when many traces are
// packed into one buffer (the columnar world file writes thousands per
// section).
func (t *Trace) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.n))
	for _, w := range t.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// UnmarshalBinary decodes a trace produced by MarshalBinary.
func (t *Trace) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return errors.New("sim: trace too short")
	}
	n := int(binary.LittleEndian.Uint64(data))
	want := (n + 63) / 64
	if len(data) != 8+8*want {
		return fmt.Errorf("sim: trace length mismatch: n=%d bytes=%d", n, len(data))
	}
	t.n = n
	t.words = make([]uint64, want)
	for i := range t.words {
		t.words[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	return nil
}
