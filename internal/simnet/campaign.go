package simnet

import (
	"context"
	"time"

	"repro/internal/crawler"
	"repro/internal/crawler/fleet"
	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// CampaignConfig shapes a simulated measurement campaign: the §3 pipeline
// of five-minute availability probes followed by a full toot crawl and
// follower scrape of whatever is reachable at the end of the probing
// window.
type CampaignConfig struct {
	// StartSlot is the first probed 5-minute slot (an index into the
	// world's traces).
	StartSlot int
	// Slots is the number of probe rounds; 14 days = 14*288 = 4032.
	Slots int
	// ProbeWorkers / CrawlWorkers / ScrapeWorkers bound concurrency in the
	// three phases (0 = the crawler defaults).
	ProbeWorkers  int
	CrawlWorkers  int
	ScrapeWorkers int
	// Resume, when set, runs the campaign as a delta window over the
	// checkpointed one: the toot crawl fetches only content past each
	// domain's high-water mark (since_id), and the follower scrape covers
	// the union of carried and newly seen authors. StartSlot must be the
	// slot right after the checkpointed window.
	Resume *Checkpoint
	// Fleet, when set, runs the toot-crawl phase through the distributed
	// crawler fleet (coordinator + leased workers over the work-stealing
	// frontier) instead of the flat TootCrawler worker pool. CrawlWorkers
	// is ignored in that case; Fleet.Workers rules. The harvest is
	// byte-identical either way — that is TestFleetEquivalence's oracle.
	Fleet *fleet.Options
	// Faults, when set, arms the harness's chaos transport with a
	// byzantine fault schedule aligned to the probed population (row i
	// scripts domain i, like the availability traces). Transient-only
	// schedules leave the campaign's output byte-identical to a fault-free
	// run — that is TestChaosConvergence's oracle.
	Faults *sim.FaultSet
}

// CampaignResult carries everything the simulated measurement campaign
// collected — the same three §3 datasets the paper gathered.
type CampaignResult struct {
	// Domains is the probed population in probe order (world order).
	Domains []string
	// Log is the raw probe record; Traces its §4.4 bitset form.
	Log    *crawler.ProbeLog
	Traces *sim.TraceSet
	// Crawls holds the per-instance toot harvests; Authors the distinct
	// toot authors in first-seen order; Scrape their follower lists.
	Crawls  []crawler.InstanceCrawl
	Authors []string
	Scrape  crawler.ScrapeResult
	// StartSlot/FinalSlot bound the probed window; FinalSlot's
	// availability was live during the crawl and scrape phases.
	StartSlot int
	FinalSlot int
	// FleetStats holds the fleet coordination counters when the crawl
	// phase ran through CampaignConfig.Fleet (nil otherwise).
	FleetStats *fleet.Stats
}

// Campaign is the §3 probe loop, written once: the injector that replays
// the world's traces onto the servers, the monitor that probes them, the
// log the rounds are filed in, the probe population and the rounds done.
// One round is Apply then Probe. RunCampaign drives it straight through;
// the scenario engine drives it with scripted events between rounds.
type Campaign struct {
	Injector *Injector
	Log      *crawler.ProbeLog

	clock  *vclock.Sim
	mon    crawler.Monitor
	start  int
	rounds int
	at     time.Time       // the applied slot's calendar time
	known  map[string]bool // the population as a set, built by the first AddDomain
}

// NewCampaign starts a probe loop over every instance the network hosts,
// whose first round probes slot start. probeWorkers bounds each round's
// concurrency (0 = the monitor's default).
func (h *Harness) NewCampaign(start, probeWorkers int) *Campaign {
	domains := h.Net.Domains()
	c := &Campaign{
		Injector: NewInjector(h.Net, domains, h.World.Traces),
		Log:      crawler.NewProbeLog(),
		clock:    h.Clock,
		mon:      crawler.Monitor{Client: h.Client, Domains: domains, Workers: probeWorkers, Clock: h.Clock},
		start:    start,
	}
	c.mon.Now = func() time.Time { return c.at }
	return c
}

// SlotTime is an absolute probe slot's calendar time.
func SlotTime(slot int) time.Time {
	return dataset.Day(0).Add(time.Duration(slot) * SlotDuration)
}

// Apply sets every server's availability to the next round's slot and moves
// virtual time to that slot's calendar time. Virtual time may already be
// past it (retry backoffs and mid-campaign crawls stretch the elastic
// clock); the round's samples are stamped with the slot's time regardless.
func (c *Campaign) Apply() {
	slot := c.start + c.rounds
	c.Injector.Apply(slot)
	c.at = SlotTime(slot)
	c.clock.AdvanceTo(c.at)
}

// Probe polls the whole population once and files the round under the
// applied slot's time.
func (c *Campaign) Probe(ctx context.Context) {
	c.Log.Add(c.mon.PollOnce(ctx))
	c.rounds++
}

// AddDomain adds a newly known domain to the probe population and reports
// whether it was new. Its unobserved past — every round already probed — is
// filed as offline: an instance the index has never seen is
// indistinguishable from a dead one.
func (c *Campaign) AddDomain(domain string) bool {
	if c.known == nil {
		c.known = make(map[string]bool, len(c.mon.Domains)+1)
		for _, d := range c.mon.Domains {
			c.known[d] = true
		}
	}
	if c.known[domain] {
		return false
	}
	c.known[domain] = true
	for k := 0; k < c.rounds; k++ {
		c.Log.Add([]crawler.Sample{{Domain: domain, At: SlotTime(c.start + k)}})
	}
	c.mon.Domains = append(c.mon.Domains, domain)
	return true
}

// Domains returns the probe population in probe order. The population only
// grows, so the slice stays valid; appending to it copies.
func (c *Campaign) Domains() []string {
	n := len(c.mon.Domains)
	return c.mon.Domains[:n:n]
}

// Probed returns the campaign's result so far: the population, the probe
// log and its traces over the rounds done. The crawl fields are CrawlPhase's
// to fill.
func (c *Campaign) Probed() *CampaignResult {
	traces, _ := c.Log.ToTraceSet(dataset.SlotsPerDay)
	return &CampaignResult{
		Domains:   c.Domains(),
		Log:       c.Log,
		Traces:    traces,
		StartSlot: c.start,
		FinalSlot: c.start + c.rounds - 1,
	}
}

// RunCampaign replays the paper's measurement campaign against the live
// harness in virtual time: for every slot, the outage injector applies the
// world's ground-truth traces to the running servers and the monitor probes
// every instance over HTTP; after the last round, the toot crawler pages
// through every reachable public timeline and the follower scraper walks
// the followers of every discovered author. Weeks of simulated probing
// complete with zero real sleeps.
func (h *Harness) RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Slots <= 0 {
		panic("simnet: campaign needs a positive slot count")
	}
	if cfg.Resume != nil && cfg.StartSlot != cfg.Resume.StartSlot+cfg.Resume.Slots {
		panic("simnet: delta campaign must start right after its checkpointed window")
	}
	c := h.NewCampaign(cfg.StartSlot, cfg.ProbeWorkers)
	if cfg.Faults != nil {
		c.Injector.BindFaults(h.Faults, cfg.Faults)
		defer c.Injector.BindFaults(h.Faults, nil)
	}
	for s := 0; s < cfg.Slots; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.Apply()
		c.Probe(ctx)
	}
	res := c.Probed()
	if err := h.CrawlPhase(ctx, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CrawlPhase runs the second half of the §3 pipeline against the network as
// it stands — the toot crawl of res.Domains, then the follower scrape of the
// authors it saw — and records it in res (Crawls, Authors, Scrape,
// FleetStats). Of cfg it reads CrawlWorkers, ScrapeWorkers, Fleet and Resume.
func (h *Harness) CrawlPhase(ctx context.Context, cfg CampaignConfig, res *CampaignResult) error {
	tc := &crawler.TootCrawler{Client: h.Client, Workers: cfg.CrawlWorkers, Local: true}
	if cfg.Resume != nil {
		tc.Since = cfg.Resume.HighWater
	}
	if cfg.Fleet != nil {
		fl := &fleet.Fleet{Crawler: tc, Clock: h.Clock, Options: *cfg.Fleet}
		fres, err := fl.Crawl(ctx, res.Domains)
		if err != nil {
			return err
		}
		res.Crawls, res.FleetStats = fres.Crawls, &fres.Stats
	} else {
		res.Crawls, res.FleetStats = tc.Crawl(ctx, res.Domains), nil
	}
	if cfg.Resume != nil {
		res.Authors = UnionAuthors(cfg.Resume, res.Crawls)
	} else {
		res.Authors = crawler.Authors(res.Crawls)
	}
	fs := &crawler.FollowerScraper{Client: h.Client, Workers: cfg.ScrapeWorkers}
	res.Scrape = fs.Scrape(ctx, res.Authors)
	return ctx.Err()
}
