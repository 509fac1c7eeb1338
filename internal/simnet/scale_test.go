package simnet

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// TestCampaignScale is the -short-guarded scale suite: the full §3
// probe+crawl+scrape campaign against a 10K-instance world — 2.3× the
// paper's full population — with the recovered traces and graphs held
// byte-identical to ground truth. Before the wire codecs, the server's
// page cache and the slab-backed toot store, the probe phase alone
// (millions of in-memory HTTP requests) made this scale impractical to
// test.
func TestCampaignScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale campaign skipped in -short mode")
	}
	start := time.Now()

	cfg := gen.SmallConfig(3)
	// A 10K-instance population, but with the axes that only multiply
	// runtime trimmed: few users per instance, a short measurement period,
	// and a single simulated probing day.
	cfg.Instances = 10000
	cfg.Users = 25000
	cfg.Days = 8
	cfg.MassExpiryDay = -1
	w := gen.Generate(cfg)
	if len(w.Instances) < 10000 {
		t.Fatalf("world has %d instances, want 10K", len(w.Instances))
	}

	const (
		startSlot = 2 * dataset.SlotsPerDay
		tootCap   = 2
	)
	slots := 1 * dataset.SlotsPerDay
	if raceEnabled {
		// The race detector makes each probe ~10× dearer; a quarter-day of
		// probing still exercises every phase at the full 10K population.
		slots = dataset.SlotsPerDay / 4
	}
	h, err := New(context.Background(), w, Options{
		MaxTootsPerUser: tootCap,
		Retries:         2,
		Backoff:         50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("world of %d instances / %d users loaded in %v", len(w.Instances), len(w.Users), time.Since(start))

	res, err := h.RunCampaign(context.Background(), CampaignConfig{
		StartSlot:     startSlot,
		Slots:         slots,
		ProbeWorkers:  32,
		CrawlWorkers:  32,
		ScrapeWorkers: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign of %d probe rounds × %d instances done at %v", slots, len(res.Domains), time.Since(start))

	// Recovered availability traces == ground truth, bit for bit.
	if res.Traces.Len() != len(w.Instances) || res.Traces.Slots() != slots {
		t.Fatalf("recovered traces %d × %d", res.Traces.Len(), res.Traces.Slots())
	}
	for i := range w.Instances {
		truth, got := w.Traces.Traces[i], res.Traces.Traces[i]
		for s := 0; s < slots; s++ {
			if got.IsDown(s) != truth.IsDown(startSlot+s) {
				t.Fatalf("%s slot %d: probed %v, truth %v",
					w.Instances[i].Domain, s, got.IsDown(s), truth.IsDown(startSlot+s))
			}
		}
	}

	// The rebuilt world equals the expected world derived from ground
	// truth under the §3 coverage rules — structures deep-equal, graph and
	// trace encodings byte-equal.
	recovered, recNames := Rebuild(res)
	expected, expNames := ExpectedWorld(w, ExpectedConfig{
		StartSlot:       startSlot,
		Slots:           slots,
		MaxTootsPerUser: tootCap,
	})
	if !reflect.DeepEqual(recNames, expNames) {
		t.Fatalf("account populations differ: %d recovered vs %d expected", len(recNames), len(expNames))
	}
	if len(recNames) == 0 || recovered.Social.NumEdges() == 0 || recovered.Federation.NumEdges() == 0 {
		t.Fatalf("campaign recovered nothing: %d accounts, %d social edges",
			len(recNames), recovered.Social.NumEdges())
	}
	if !reflect.DeepEqual(recovered.Instances, expected.Instances) {
		t.Fatal("recovered instances differ from expected")
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
	t.Logf("scale campaign verified in %v: %d accounts, %d social edges, %d toots",
		time.Since(start), len(recNames), recovered.Social.NumEdges(),
		len(res.Authors))
}
