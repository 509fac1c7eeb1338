package gen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sim"
)

// traceSetBytes returns the bytes a trace set holds and its outage count.
func traceSetBytes(ts *sim.TraceSet) (bytes, outages int) {
	for _, tr := range ts.Traces {
		outages += len(tr.Outages(0, tr.N()))
	}
	return heapBytes(reflect.ValueOf(ts), exactSize), outages
}

// A trace holds its outages and nothing per slot: a generated world's
// trace set, and the same set loaded from the world file, take at most
// 8 B an outage plus a fixed header per trace (its pointer and struct).
func TestTraceSetResidentBytes(t *testing.T) {
	w := tiny(t)
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	perTrace := 8 + int(reflect.TypeFor[sim.Trace]().Size())
	fixed := int(reflect.TypeFor[sim.TraceSet]().Size())
	for name, ts := range map[string]*sim.TraceSet{"generated": w.Traces, "loaded": loaded.Traces} {
		got, outages := traceSetBytes(ts)
		want := fixed + perTrace*ts.Len() + 8*outages
		t.Logf("%s: %d traces of %d slots, %d outages, %d bytes", name, ts.Len(), ts.Slots(), outages, got)
		if outages == 0 {
			t.Fatalf("%s: no outages; the bound shows nothing", name)
		}
		if got > want {
			t.Errorf("%s: trace set holds %d bytes, want ≤ %d (%d B a trace + 8 B an outage)", name, got, want, perTrace)
		}
	}
}
