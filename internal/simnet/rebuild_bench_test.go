package simnet

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// benchHarness serves the world of the repository benchmark's `campaign`
// workload — SmallConfig(1) cut to 500 instances and 20,000 users over 8
// days, 10 toots a user — so a micro-benchmark here measures what bench/
// measures.
func benchHarness(tb testing.TB) *Harness {
	tb.Helper()
	cfg := gen.SmallConfig(1)
	cfg.Instances, cfg.Users, cfg.Days, cfg.MassExpiryDay = 500, 20000, 8, -1
	h, err := New(context.Background(), gen.Generate(cfg), Options{
		MaxTootsPerUser: 10, Retries: 2, Backoff: 50 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// benchCampaign runs that workload's campaign, 36 probe rounds from day 2,
// and returns what it collected.
func benchCampaign(tb testing.TB) *CampaignResult {
	tb.Helper()
	res, err := benchHarness(tb).RunCampaign(context.Background(), CampaignConfig{
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

// BenchmarkCrawlPhase is bench's simnet.crawl_s plus simnet.scrape_s: every
// timeline and every author's follower pages over the in-memory transport,
// the toot crawl at two widths.
func BenchmarkCrawlPhase(b *testing.B) {
	h := benchHarness(b)
	for _, bc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"workers=2", CampaignConfig{CrawlWorkers: 2, ScrapeWorkers: 2}},
		{"workers=10", CampaignConfig{CrawlWorkers: 10, ScrapeWorkers: 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			res := &CampaignResult{Domains: h.Net.Domains()}
			b.ReportAllocs()
			for b.Loop() {
				if err := h.CrawlPhase(context.Background(), bc.cfg, res); err != nil {
					b.Fatal(err)
				}
				if len(res.Authors) == 0 {
					b.Fatal("empty crawl")
				}
			}
		})
	}
}
