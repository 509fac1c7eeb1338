package simnet

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// benchCampaign runs one campaign of the repository benchmark's `campaign`
// workload — SmallConfig(1) cut to 500 instances and 20,000 users over 8
// days, 10 toots a user, 36 probe rounds from day 2 — and returns what it
// collected, so a micro-benchmark here measures what bench/ measures.
func benchCampaign(tb testing.TB) *CampaignResult {
	tb.Helper()
	cfg := gen.SmallConfig(1)
	cfg.Instances, cfg.Users, cfg.Days, cfg.MassExpiryDay = 500, 20000, 8, -1
	h, err := New(context.Background(), gen.Generate(cfg), Options{
		MaxTootsPerUser: 10, Retries: 2, Backoff: 50 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := h.RunCampaign(context.Background(), CampaignConfig{
		StartSlot: 2 * dataset.SlotsPerDay, Slots: 36,
		ProbeWorkers: 2, CrawlWorkers: 2, ScrapeWorkers: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkRebuild is bench's simnet.rebuild_s seen from where the code is
// edited: one bench-sized CampaignResult turned back into a world.
func BenchmarkRebuild(b *testing.B) {
	res := benchCampaign(b)
	b.ReportAllocs()
	for b.Loop() {
		Rebuild(res)
	}
}
