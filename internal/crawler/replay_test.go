package crawler

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/instance"
)

// The full §4.4 measurement loop: availability is driven by the generated
// 5-minute traces, the monitor probes each slot over real HTTP, and the
// recovered probe log must reproduce the ground-truth downtime bit for bit.
func TestMonitorRecoversAvailabilityTraces(t *testing.T) {
	cfg := gen.TinyConfig(11)
	cfg.Instances = 30
	cfg.Users = 300
	cfg.Days = 20
	w := gen.Generate(cfg)
	net, err := instance.LoadWorld(context.Background(), w, instance.LoadOptions{MaxTootsPerUser: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(net)
	defer srv.Close()

	cli := &Client{Resolve: func(string) string { return srv.URL }, Retries: 1}
	mon := &Monitor{Client: cli, Domains: domainsOf(w), Workers: 8}
	log := NewProbeLog()

	// Probe a contiguous window of slots in accelerated time, starting
	// somewhere inside the measurement period so instances already exist.
	startSlot := 10 * dataset.SlotsPerDay
	const rounds = 40
	for s := 0; s < rounds; s++ {
		for i := range w.Instances {
			net.Server(w.Instances[i].Domain).SetOnline(!w.Traces.Traces[i].IsDown(startSlot + s))
		}
		log.Add(mon.PollOnce(context.Background()))
	}

	ts, domains := log.ToTraceSet(dataset.SlotsPerDay)
	if ts.Len() != len(w.Instances) || ts.Slots() != rounds {
		t.Fatalf("recovered traces: %d × %d", ts.Len(), ts.Slots())
	}
	for i, d := range domains {
		if d != w.Instances[i].Domain {
			t.Fatalf("domain order mismatch at %d", i)
		}
		truth := w.Traces.Traces[i]
		for s := 0; s < rounds; s++ {
			if ts.Traces[i].IsDown(s) != truth.IsDown(startSlot+s) {
				t.Fatalf("%s slot %d: measured %v, truth %v",
					d, s, ts.Traces[i].IsDown(s), truth.IsDown(startSlot+s))
			}
		}
		want := truth.DownFraction(startSlot, startSlot+rounds)
		got := log.DowntimeFraction(d)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s downtime %g, truth %g", d, got, want)
		}
	}
}

func TestProbeLogToTraceSetPadding(t *testing.T) {
	log := NewProbeLog()
	log.Add([]Sample{{Domain: "a.test", Online: true}, {Domain: "b.test", Online: false}})
	log.Add([]Sample{{Domain: "a.test", Online: false}})
	ts, domains := log.ToTraceSet(288)
	if len(domains) != 2 || ts.Slots() != 2 {
		t.Fatalf("domains=%v slots=%d", domains, ts.Slots())
	}
	// a.test: up, down. b.test: down, padded-down.
	if ts.Traces[0].IsDown(0) || !ts.Traces[0].IsDown(1) {
		t.Fatal("a.test bits wrong")
	}
	if !ts.Traces[1].IsDown(0) || !ts.Traces[1].IsDown(1) {
		t.Fatal("b.test bits wrong (missing round must pad as down)")
	}
}
