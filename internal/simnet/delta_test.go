package simnet

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
)

func saveBytes(t *testing.T, w *dataset.World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIncrementalCampaignMatchesFull is the incremental-recrawl
// differential suite: campaign A over an early window, a checkpoint, a
// delta campaign B over the following window on the same live harness
// (crawling only past each domain's high-water mark), and a merge of B's
// window delta into A's rebuilt world. The merged world must be
// byte-identical — Save bytes and account names — to the world rebuilt
// from one uninterrupted campaign over the union window on a fresh
// harness, while the delta crawl itself fetches no already-harvested toot.
func TestIncrementalCampaignMatchesFull(t *testing.T) {
	const (
		startSlot = campStartSlot
		slotsA    = 2 * dataset.SlotsPerDay
		slotsB    = 1 * dataset.SlotsPerDay
	)
	opts := Options{
		MaxTootsPerUser:   campTootCap,
		Retries:           2,
		Backoff:           50 * time.Millisecond,
		RatePerHost:       500,
		Burst:             200,
		FederationLatency: 20 * time.Millisecond,
	}
	ctx := context.Background()

	w := campaignWorld()
	h, err := New(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := h.RunCampaign(ctx, CampaignConfig{
		StartSlot: startSlot, Slots: slotsA, ProbeWorkers: 4, CrawlWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	worldA, namesA := Rebuild(resA)
	ck := NewCheckpoint(resA)
	if len(ck.HighWater) == 0 {
		t.Fatal("checkpoint harvested nothing")
	}

	resB, err := h.RunCampaign(ctx, CampaignConfig{
		StartSlot: startSlot + slotsA, Slots: slotsB, ProbeWorkers: 4, CrawlWorkers: 8,
		Resume: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := DeltaOf(resB, ck)
	if err != nil {
		t.Fatal(err)
	}
	merged, mNames, err := dataset.Merge(worldA, namesA, delta)
	if err != nil {
		t.Fatal(err)
	}

	// The window split must exercise every resume class: domains crawled
	// incrementally (up at both window ends), domains refetched in full
	// (down at A's crawl, up at B's), and ideally domains whose carried
	// harvest is dropped (up at A's crawl, down at B's).
	deltaFetched, refetched, dropped := 0, 0, 0
	for i := range w.Instances {
		if w.Instances[i].BlocksCrawl {
			continue
		}
		upA := !w.Traces.Traces[i].IsDown(startSlot + slotsA - 1)
		upB := !w.Traces.Traces[i].IsDown(startSlot + slotsA + slotsB - 1)
		switch {
		case upA && upB:
			deltaFetched++
		case !upA && upB:
			refetched++
		case upA && !upB:
			dropped++
		}
	}
	if deltaFetched == 0 || refetched == 0 || dropped == 0 {
		t.Fatalf("window split too clean: %d delta-fetched, %d refetched, %d dropped (pick another seed/window)",
			deltaFetched, refetched, dropped)
	}
	t.Logf("resume classes: %d delta-fetched, %d refetched, %d dropped", deltaFetched, refetched, dropped)

	// Incrementality: no new content appeared between the windows, so
	// every resumed domain's delta crawl must come back empty, while the
	// full union crawl re-pays for the whole corpus.
	deltaToots, fullToots := 0, 0
	for i := range resB.Crawls {
		if resB.Crawls[i].SinceID > 0 {
			deltaToots += len(resB.Crawls[i].Toots)
		}
	}
	if deltaToots != 0 {
		t.Fatalf("delta crawl refetched %d toots past their high-water marks", deltaToots)
	}

	// The oracle: a single uninterrupted campaign over the union window on
	// a fresh harness.
	h2, err := New(ctx, campaignWorld(), opts)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := h2.RunCampaign(ctx, CampaignConfig{
		StartSlot: startSlot, Slots: slotsA + slotsB, ProbeWorkers: 4, CrawlWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, fNames := Rebuild(resF)
	for i := range resF.Crawls {
		fullToots += len(resF.Crawls[i].Toots)
	}
	if fullToots == 0 {
		t.Fatal("full campaign harvested nothing")
	}
	t.Logf("delta crawl fetched %d toots vs %d for the full recrawl", deltaToots, fullToots)

	// Byte-identical worlds: names, then structured fields for a readable
	// diff, then the whole serialised world.
	if !reflect.DeepEqual(mNames, fNames) {
		t.Fatalf("account populations differ: %d merged vs %d full", len(mNames), len(fNames))
	}
	if !reflect.DeepEqual(merged.Instances, full.Instances) {
		for i := range merged.Instances {
			if !reflect.DeepEqual(merged.Instances[i], full.Instances[i]) {
				t.Fatalf("instance %d differs:\n got %+v\nwant %+v", i, merged.Instances[i], full.Instances[i])
			}
		}
	}
	if !reflect.DeepEqual(merged.Users, full.Users) {
		t.Fatal("merged users differ from full-campaign users")
	}
	if got, want := marshalTraces(t, merged), marshalTraces(t, full); !bytes.Equal(got, want) {
		t.Fatal("merged trace bytes differ from full-campaign traces")
	}
	if !reflect.DeepEqual(merged.Social, full.Social) {
		t.Fatal("merged social graph differs from full-campaign graph")
	}
	if !bytes.Equal(saveBytes(t, merged), saveBytes(t, full)) {
		t.Fatal("merged world Save bytes differ from the full-campaign world")
	}
	if merged.Social.NumEdges() == 0 {
		t.Fatal("merged social graph is empty")
	}
}
