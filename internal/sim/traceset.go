package sim

import (
	"fmt"
	"slices"
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
// (Fig 8's raw data) over days [fromDay, toDay) to dst: each day's
// DownFraction, from one walk over the runs those days overlap.
func (ts *TraceSet) AppendDailyDowntime(dst []float64, i int32, fromDay, toDay int) []float64 {
	t := ts.Traces[i]
	rs := t.overlapping(fromDay*ts.SlotsPerDay, toDay*ts.SlotsPerDay)
	for d := fromDay; d < toDay; d++ {
		lo, hi := ts.DaySlots(d)
		lo, hi = max(lo, 0), min(hi, t.n)
		if lo >= hi {
			dst = append(dst, 0)
			continue
		}
		down := 0
		for _, r := range rs {
			if int(r.start) >= hi {
				break
			}
			s, e := r.clip(lo, hi)
			down += e - s
		}
		for len(rs) > 0 && int(rs[0].end) <= hi {
			rs = rs[1:]
		}
		dst = append(dst, float64(down)/float64(hi-lo))
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
		out.Traces[i] = t.window(from, to)
	}
	return out
}

// SimultaneousDown returns the trace that is down exactly when every listed
// instance is down — the signal used to declare an AS-wide failure
// (Table 1): the first trace's runs intersected with each other's in turn.
// It panics on an empty id list.
func (ts *TraceSet) SimultaneousDown(ids []int32) *Trace {
	if len(ids) == 0 {
		panic("sim: SimultaneousDown with no instances")
	}
	first := ts.Traces[ids[0]]
	result := &Trace{n: first.n, runs: slices.Clone(first.runs)}
	for _, id := range ids[1:] {
		result.runs = intersect(result.runs, ts.Traces[id].runs)
	}
	return result
}

// Trim drops the spare capacity that writes in arbitrary order leave in
// each trace's run list. The generator calls it once its traces are final.
func (ts *TraceSet) Trim() {
	for _, t := range ts.Traces {
		if cap(t.runs) > len(t.runs) {
			t.runs = append(make([]run, 0, len(t.runs)), t.runs...)
		}
	}
}
