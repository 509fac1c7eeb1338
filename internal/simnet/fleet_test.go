package simnet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/gen"
)

// fleetWorld is the equivalence population: a dozen instances so every
// worker count in the matrix gets a multi-domain queue, with churn and
// crawl blockers so the harvest exercises every result class.
func fleetWorld() *dataset.World {
	cfg := gen.TinyConfig(4)
	cfg.Instances = 12
	cfg.Users = 120
	cfg.Days = 6
	return gen.Generate(cfg)
}

const (
	fleetStartSlot = 2 * dataset.SlotsPerDay
	fleetSlots     = dataset.SlotsPerDay / 2
)

func fleetOptions() Options {
	return Options{
		MaxTootsPerUser:   campTootCap,
		Retries:           2,
		Backoff:           50 * time.Millisecond,
		RatePerHost:       500,
		Burst:             200,
		FederationLatency: 20 * time.Millisecond,
	}
}

// fleetConfig is the equivalence campaign's window with crawl toot-crawl
// workers.
func fleetConfig(crawl int) CampaignConfig {
	return CampaignConfig{
		StartSlot:    fleetStartSlot,
		Slots:        fleetSlots,
		ProbeWorkers: 4,
		CrawlWorkers: crawl,
	}
}

// runFleetCampaign runs one campaign over a fresh harness on the shared
// fleet world.
func runFleetCampaign(t *testing.T, cfg CampaignConfig) *CampaignResult {
	t.Helper()
	ctx := context.Background()
	h, err := New(ctx, fleetWorld(), fleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refFlatCrawl is the toot crawl every campaign's is held to: one
// CrawlInstance per domain, in order, on one goroutine — the flat pool at
// one worker, with no lease in sight.
func refFlatCrawl(ctx context.Context, cli *crawler.Client, domains []string) []crawler.InstanceCrawl {
	tc := &crawler.TootCrawler{Client: cli, Local: true}
	out := make([]crawler.InstanceCrawl, len(domains))
	for i, d := range domains {
		out[i] = tc.CrawlInstance(ctx, d)
	}
	return out
}

// refFleetCampaign is the equivalence campaign with every phase on one
// worker and refFlatCrawl as its toot crawl.
func refFleetCampaign(t *testing.T) *CampaignResult {
	t.Helper()
	ctx := context.Background()
	h, err := New(ctx, fleetWorld(), fleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := h.NewCampaign(fleetStartSlot, 1)
	for range fleetSlots {
		c.Apply()
		c.Probe(ctx)
	}
	res := c.Probed()
	res.Crawls = refFlatCrawl(ctx, h.Client, res.Domains)
	res.Authors = crawler.Authors(res.Crawls)
	res.Scrape = (&crawler.FollowerScraper{Client: h.Client, Workers: 1}).Scrape(ctx, res.Authors)
	return res
}

// TestFleetEquivalence is the toot crawl's headline oracle: for any worker
// count and any GOMAXPROCS, a campaign of the simnet world — including one
// where a worker is killed mid-domain and its lease is re-assigned — must
// harvest exactly what refFlatCrawl harvests and rebuild a world
// byte-identical to the reference campaign's. The probe and scrape worker
// counts are inputs too, at 1 and 8: no execution knob of CampaignConfig
// may show through in the output bytes.
func TestFleetEquivalence(t *testing.T) {
	ref := refFleetCampaign(t)
	refWorld, refNames := Rebuild(ref)
	refBytes := saveBytes(t, refWorld)
	refMarks := crawler.Marks(ref.Crawls)

	check := func(t *testing.T, cfg CampaignConfig) {
		res := runFleetCampaign(t, cfg)
		if !reflect.DeepEqual(res.Crawls, ref.Crawls) {
			t.Fatal("campaign harvest differs from refFlatCrawl")
		}
		if !reflect.DeepEqual(res.Traces, ref.Traces) || !reflect.DeepEqual(res.Scrape, ref.Scrape) {
			t.Fatal("probe traces or follower scrape differ from the reference campaign's")
		}
		world, names := Rebuild(res)
		if !reflect.DeepEqual(names, refNames) {
			t.Fatal("account populations differ")
		}
		if !bytes.Equal(saveBytes(t, world), refBytes) {
			t.Fatal("rebuilt world Save bytes differ from the reference campaign's")
		}
		if !reflect.DeepEqual(crawler.Marks(res.Crawls), refMarks) {
			t.Fatal("since-marks differ from refFlatCrawl's")
		}
		st := res.CrawlStats
		wantDead := len(cfg.Kill)
		if st.Workers != cfg.CrawlWorkers || st.Dead != wantDead || st.Abandoned != wantDead || st.Reassigned != wantDead {
			t.Fatalf("worker count or kill script not reflected in stats: %+v", st)
		}
		if st.Leases != st.Domains+st.Reassigned {
			t.Fatalf("lease conservation violated: %+v", st)
		}
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("procs=%d/workers=%d", procs, workers), func(t *testing.T) {
				check(t, fleetConfig(workers))
			})
			if workers == 1 {
				continue // a killed solo worker leaves no survivors
			}
			t.Run(fmt.Sprintf("procs=%d/workers=%d/kill", procs, workers), func(t *testing.T) {
				cfg := fleetConfig(workers)
				cfg.Kill = []crawler.Kill{{Domain: 1}}
				check(t, cfg)
			})
		}
		for _, n := range []int{1, 8} {
			t.Run(fmt.Sprintf("procs=%d/probe=%d", procs, n), func(t *testing.T) {
				cfg := fleetConfig(4)
				cfg.ProbeWorkers = n
				check(t, cfg)
			})
			t.Run(fmt.Sprintf("procs=%d/scrape=%d", procs, n), func(t *testing.T) {
				cfg := fleetConfig(4)
				cfg.ScrapeWorkers = n
				check(t, cfg)
			})
		}
	}
}

// TestFleetCheckpointCompatibility pins the shared checkpoint format from
// all three sides: crawl marks, simnet.Checkpoint high-water marks, and the
// fedicrawl -since/-write-since file encoding must round-trip through each
// other unchanged.
func TestFleetCheckpointCompatibility(t *testing.T) {
	res := runFleetCampaign(t, fleetConfig(4))

	// Crawl marks and the campaign checkpoint agree on both membership
	// (complete harvests only) and values.
	ck := NewCheckpoint(res)
	marks := crawler.Marks(res.Crawls)
	if len(marks) == 0 {
		t.Fatal("crawl checkpointed nothing")
	}
	if !reflect.DeepEqual(marks, ck.HighWater) {
		t.Fatalf("crawl marks %v != checkpoint high-water %v", marks, ck.HighWater)
	}

	// The -write-since file encoding round-trips the marks byte-stably.
	enc, err := crawler.EncodeMarks(marks)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := crawler.DecodeMarks(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, marks) {
		t.Fatal("marks changed across an encode/decode round-trip")
	}
	enc2, err := crawler.EncodeMarks(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("marks file encoding is not byte-stable")
	}

	// A delta campaign resumed from the file-round-tripped marks behaves
	// exactly like one resumed from the in-memory checkpoint: no toot past
	// a high-water mark is ever refetched.
	ck.HighWater = dec
	ctx := context.Background()
	h, err := New(ctx, fleetWorld(), fleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunCampaign(ctx, fleetConfig(1)); err != nil {
		t.Fatal(err)
	}
	resB, err := h.RunCampaign(ctx, CampaignConfig{
		StartSlot:    fleetStartSlot + fleetSlots,
		Slots:        fleetSlots,
		ProbeWorkers: 4,
		CrawlWorkers: 4,
		Resume:       ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range resB.Crawls {
		if c := &resB.Crawls[i]; c.SinceID > 0 && len(c.Toots) != 0 {
			t.Fatalf("%s refetched %d toots past its high-water mark", c.Domain, len(c.Toots))
		}
	}
}
