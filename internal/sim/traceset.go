package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// TraceSet bundles one availability trace per instance plus the probing
// calendar (slots per day), which every §4.4 analysis needs.
type TraceSet struct {
	SlotsPerDay int
	Traces      []*Trace
}

// NewTraceSet allocates all-up traces for n instances over days days.
func NewTraceSet(n, days, slotsPerDay int) *TraceSet {
	ts := &TraceSet{SlotsPerDay: slotsPerDay, Traces: make([]*Trace, n)}
	for i := range ts.Traces {
		ts.Traces[i] = NewTrace(days * slotsPerDay)
	}
	return ts
}

// Len returns the number of instances.
func (ts *TraceSet) Len() int { return len(ts.Traces) }

// Slots returns the number of probe slots per instance (0 if empty).
func (ts *TraceSet) Slots() int {
	if len(ts.Traces) == 0 {
		return 0
	}
	return ts.Traces[0].N()
}

// DaySlots returns the slot window [from, to) covering day d.
func (ts *TraceSet) DaySlots(d int) (from, to int) {
	return d * ts.SlotsPerDay, (d + 1) * ts.SlotsPerDay
}

// AppendDailyDowntime appends instance i's per-day downtime fractions
// (Fig 8's raw data) over days [fromDay, toDay) to dst.
func (ts *TraceSet) AppendDailyDowntime(dst []float64, i int32, fromDay, toDay int) []float64 {
	for d := fromDay; d < toDay; d++ {
		lo, hi := ts.DaySlots(d)
		dst = append(dst, ts.Traces[i].DownFraction(lo, hi))
	}
	return dst
}

// Window returns a new trace set covering slots [from, to) of every trace —
// the per-window view an incremental recrawl merges one campaign at a time.
// Bounds must satisfy 0 <= from <= to <= Slots().
func (ts *TraceSet) Window(from, to int) *TraceSet {
	if from < 0 || to < from || (len(ts.Traces) > 0 && to > ts.Slots()) {
		panic(fmt.Sprintf("sim: window [%d,%d) outside [0,%d)", from, to, ts.Slots()))
	}
	out := &TraceSet{SlotsPerDay: ts.SlotsPerDay, Traces: make([]*Trace, len(ts.Traces))}
	for i, t := range ts.Traces {
		w := NewTrace(to - from)
		w.CopyDown(t, from, to, 0)
		out.Traces[i] = w
	}
	return out
}

// SimultaneousDown returns the trace that is down exactly when every listed
// instance is down — the signal used to declare an AS-wide failure
// (Table 1). It panics on an empty id list.
func (ts *TraceSet) SimultaneousDown(ids []int32) *Trace {
	if len(ids) == 0 {
		panic("sim: SimultaneousDown with no instances")
	}
	acc := ts.Traces[ids[0]]
	// Copy-on-write: start from the first trace, AND the rest in.
	result := NewTrace(acc.N())
	copy(result.words, acc.words)
	for _, id := range ids[1:] {
		other := ts.Traces[id]
		for w := range result.words {
			result.words[w] &= other.words[w]
		}
	}
	return result
}

// MarshalBinary encodes the trace set.
func (ts *TraceSet) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(ts.SlotsPerDay))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(ts.Traces)))
	buf.Write(hdr[:])
	for _, t := range ts.Traces {
		b, err := t.MarshalBinary()
		if err != nil {
			return nil, err
		}
		var sz [8]byte
		binary.LittleEndian.PutUint64(sz[:], uint64(len(b)))
		buf.Write(sz[:])
		buf.Write(b)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a trace set produced by MarshalBinary.
func (ts *TraceSet) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return errors.New("sim: traceset too short")
	}
	ts.SlotsPerDay = int(binary.LittleEndian.Uint64(data[0:]))
	n := int(binary.LittleEndian.Uint64(data[8:]))
	data = data[16:]
	ts.Traces = make([]*Trace, n)
	for i := 0; i < n; i++ {
		if len(data) < 8 {
			return fmt.Errorf("sim: traceset truncated at trace %d", i)
		}
		sz := int(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if len(data) < sz {
			return fmt.Errorf("sim: traceset truncated at trace %d body", i)
		}
		t := new(Trace)
		if err := t.UnmarshalBinary(data[:sz]); err != nil {
			return err
		}
		ts.Traces[i] = t
		data = data[sz:]
	}
	if len(data) != 0 {
		return errors.New("sim: trailing bytes in traceset")
	}
	return nil
}
