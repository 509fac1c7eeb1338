package simnet

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// campaignWorld is the e2e population: small enough that a 14-day probing
// campaign (4032 rounds × every instance, over real in-memory HTTP) stays
// fast under -race, big enough to exercise every §3 coverage class —
// churned instances, crawl blockers, private accounts, mid-campaign
// outages.
func campaignWorld() *dataset.World {
	cfg := gen.TinyConfig(3)
	cfg.Instances = 10
	cfg.Users = 150
	cfg.Days = 20
	return gen.Generate(cfg)
}

const (
	campStartSlot = 3 * dataset.SlotsPerDay  // probing starts on day 3
	campSlots     = 14 * dataset.SlotsPerDay // ≥14 simulated days (§3: 15 months, scaled)
	campTootCap   = 3
)

func runCampaign(t *testing.T) (*Harness, *CampaignResult) {
	t.Helper()
	w := campaignWorld()
	h, err := New(context.Background(), w, Options{
		MaxTootsPerUser:   campTootCap,
		Retries:           2, // a down instance costs one virtual backoff per probe
		Backoff:           50 * time.Millisecond,
		RatePerHost:       500,
		Burst:             200,
		FederationLatency: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunCampaign(context.Background(), CampaignConfig{
		StartSlot:    campStartSlot,
		Slots:        campSlots,
		ProbeWorkers: 4,
		CrawlWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, res
}

func marshalTraces(t *testing.T, w *dataset.World) []byte {
	t.Helper()
	b, err := w.Traces.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCampaignRecoversGroundTruth is the headline end-to-end suite: a
// simulated multi-week §3 measurement campaign (availability probing every
// five minutes, full toot crawl, follower scrape) whose crawled output,
// rebuilt into a dataset.World, must match generated ground truth exactly —
// traces bit for bit, graphs byte for byte, and the §4.4/§5 analyses
// computed from them value for value. A second, independent campaign must
// reproduce the first byte-identically.
func TestCampaignRecoversGroundTruth(t *testing.T) {
	start := time.Now()
	h, res := runCampaign(t)
	w := h.World

	// The virtual campaign must not have cost real time: weeks of probing
	// plus every retry backoff, rate-limiter wait and federation delay ran
	// on the Sim clock.
	if h.Clock.SleepCount() == 0 {
		t.Fatal("no virtual sleeps: the clock was not exercised")
	}
	if v := h.Clock.Now().Sub(dataset.Day(0)); v < time.Duration(campStartSlot+campSlots-1)*SlotDuration {
		t.Fatalf("virtual time advanced only %v", v)
	}

	// The probed population must show every §3 coverage class.
	sawDown, sawBlocked, sawPrivate := false, false, false
	for i := range w.Instances {
		if w.Traces.Traces[i].CountDown(campStartSlot, campStartSlot+campSlots) > 0 {
			sawDown = true
		}
		if w.Instances[i].BlocksCrawl {
			sawBlocked = true
		}
	}
	for i := range w.Users {
		if w.Users[i].Private {
			sawPrivate = true
		}
	}
	if !sawDown || !sawBlocked || !sawPrivate {
		t.Fatalf("population too clean: down=%v blocked=%v private=%v (pick another seed)",
			sawDown, sawBlocked, sawPrivate)
	}
	if len(res.Authors) == 0 || len(res.Scrape.Edges) == 0 {
		t.Fatalf("campaign collected nothing: %d authors, %d edges",
			len(res.Authors), len(res.Scrape.Edges))
	}
	if len(res.Scrape.Errors) != 0 {
		t.Fatalf("scrape errors: %v", res.Scrape.Errors)
	}

	// 1. Recovered availability traces == ground truth, bit for bit,
	// checked directly against the generator's bitsets.
	if res.Traces.Len() != len(w.Instances) || res.Traces.Slots() != campSlots {
		t.Fatalf("recovered traces %d × %d", res.Traces.Len(), res.Traces.Slots())
	}
	for i := range w.Instances {
		truth := w.Traces.Traces[i]
		got := res.Traces.Traces[i]
		for s := 0; s < campSlots; s++ {
			if got.IsDown(s) != truth.IsDown(campStartSlot+s) {
				t.Fatalf("%s slot %d: probed %v, truth %v",
					w.Instances[i].Domain, s, got.IsDown(s), truth.IsDown(campStartSlot+s))
			}
		}
	}

	// 2. The rebuilt world equals the expected world derived from ground
	// truth under the §3 coverage rules.
	recovered, recNames := Rebuild(res)
	expected, expNames := ExpectedWorld(w, ExpectedConfig{
		StartSlot:       campStartSlot,
		Slots:           campSlots,
		MaxTootsPerUser: campTootCap,
	})
	if !reflect.DeepEqual(recNames, expNames) {
		t.Fatalf("account populations differ: %d recovered vs %d expected",
			len(recNames), len(expNames))
	}
	if !reflect.DeepEqual(recovered.Instances, expected.Instances) {
		for i := range recovered.Instances {
			if !reflect.DeepEqual(recovered.Instances[i], expected.Instances[i]) {
				t.Fatalf("instance %d differs:\n got %+v\nwant %+v",
					i, recovered.Instances[i], expected.Instances[i])
			}
		}
	}
	if !reflect.DeepEqual(recovered.Users, expected.Users) {
		t.Fatal("recovered users differ from expected")
	}
	if got, want := marshalTraces(t, recovered), marshalTraces(t, expected); !bytes.Equal(got, want) {
		t.Fatal("recovered trace bytes differ from expected")
	}
	if !reflect.DeepEqual(recovered.Social, expected.Social) {
		t.Fatal("recovered social graph differs from expected")
	}
	if !reflect.DeepEqual(recovered.Federation, expected.Federation) {
		t.Fatal("recovered federation graph differs from expected")
	}
	if recovered.Social.NumEdges() == 0 || recovered.Federation.NumEdges() == 0 {
		t.Fatal("recovered graphs are empty")
	}

	// 3. The paper analyses computed from the recovered world match the
	// ones computed from expected ground truth: Fig 7's downtime CDF and
	// the Fig 11–13 resilience inputs.
	baseline := graph.NewBuilder(1).Freeze() // shared stand-in for the Twitter data
	if got, want := analysis.Fig7Downtime(recovered), analysis.Fig7Downtime(expected); !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig 7 differs:\n got %+v\nwant %+v", got, want)
	}
	if got, want := analysis.Fig11DegreeCDF(recovered, baseline), analysis.Fig11DegreeCDF(expected, baseline); !reflect.DeepEqual(got, want) {
		t.Fatal("Fig 11 degree CDFs differ")
	}
	if got, want := analysis.Fig12UserRemoval(recovered, baseline, 4), analysis.Fig12UserRemoval(expected, baseline, 4); !reflect.DeepEqual(got, want) {
		t.Fatal("Fig 12 removal series differ")
	}
	if got, want := analysis.Fig13aInstanceRemoval(recovered, 4), analysis.Fig13aInstanceRemoval(expected, 4); !reflect.DeepEqual(got, want) {
		t.Fatal("Fig 13a removal series differ")
	}

	// 4. A second, fully independent campaign reproduces the first
	// byte-identically: traces, social graph, federation graph.
	_, res2 := runCampaign(t)
	recovered2, _ := Rebuild(res2)
	if !bytes.Equal(marshalTraces(t, recovered), marshalTraces(t, recovered2)) {
		t.Fatal("two campaigns produced different trace bytes")
	}
	if !reflect.DeepEqual(recovered.Social, recovered2.Social) {
		t.Fatal("two campaigns produced different social graphs")
	}
	if !reflect.DeepEqual(recovered.Federation, recovered2.Federation) {
		t.Fatal("two campaigns produced different federation graphs")
	}

	// Wall-time guard: any accidental real sleeping (one 50ms backoff per
	// probe of a down instance alone would cost minutes) blows far past
	// this; the budget is loose only to tolerate slow shared CI runners —
	// on an idle machine the whole suite runs in well under 10s.
	if wall := time.Since(start); wall > 40*time.Second {
		t.Fatalf("campaign suite took %v of wall time: something slept for real", wall)
	} else {
		t.Logf("two full %d-day campaigns in %v wall, %d virtual sleeps",
			campSlots/dataset.SlotsPerDay, wall, h.Clock.SleepCount())
	}
}
