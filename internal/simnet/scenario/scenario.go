// Package scenario turns the simnet harness into a declarative campaign
// engine. A Scenario names a world, a campaign window, an event script and
// a set of assertions; Run executes it as one deterministic loop that
// interleaves outage-injector slots, scripted events, discovery rounds and
// probe rounds under virtual time, finishes with the §3 crawl and scrape
// phases, and emits a byte-reproducible JSON Report whose metrics flow
// through internal/analysis — the paper's availability and replication
// figures computed from a live run instead of a static snapshot.
//
// The built-in scenarios (registry.go) replay the paper's headline
// dynamics: correlated outage storms (§4.4, Fig 7/10), instance churn
// during a crawl (§3), and the replication strategies of §5.2 run against
// a network whose instances die mid-campaign.
package scenario

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/crawler"
	"repro/internal/crawler/fleet"
	"repro/internal/dataset"
	"repro/internal/simnet"
)

// Event is one scripted action: Do fires once, right before the probe round
// of campaign slot offset At (0 ≤ At < Slots).
type Event struct {
	At   int
	Name string
	Do   func(ctx context.Context, r *Run) error
}

// Scenario is a declarative, reproducible campaign: everything Run needs to
// replay it bit-for-bit from the seed.
type Scenario struct {
	// Name is the registry key; Title the human headline; Paper the
	// sections of the source paper the scenario replays.
	Name  string
	Title string
	Paper string
	// Seed drives world generation and every randomised scenario choice.
	Seed uint64

	// World builds the ground-truth world for the seed.
	World func(seed uint64) *dataset.World
	// Options configures the harness (clocked client, rate limits, …).
	Options simnet.Options
	// StartSlot/Slots bound the probing window, as in simnet.CampaignConfig.
	StartSlot int
	Slots     int
	// Worker counts for the three campaign phases (0 = crawler defaults).
	ProbeWorkers  int
	CrawlWorkers  int
	ScrapeWorkers int
	// Fleet, when set, routes every crawl phase (CrawlNow and the final
	// crawl) through the distributed crawler fleet — coordinator, leased
	// workers, work-stealing frontier — instead of the flat TootCrawler
	// pool; CrawlWorkers is then ignored. The run's coordination counters
	// land in Result.FleetStats.
	Fleet *fleet.Options

	// DiscoverEvery, when positive, runs a snowball discovery round
	// (crawler.Discoverer over the initial domains as seeds) every that
	// many slots; newly found domains join the probe population with their
	// unobserved past recorded as down — exactly how a real index treats
	// an instance it has never seen.
	DiscoverEvery int

	// Discoverer, when set, replaces the snowball round with a custom
	// discovery source — e.g. a DHT bootstrap walking the decentralised
	// directory's presence records instead of fetching peer lists from
	// live instances. It returns the discovered domain set (sorted);
	// fresh domains join the probe population exactly as with snowball.
	Discoverer func(ctx context.Context, r *Run) []string

	// EachSlot, when set, runs once per campaign slot, after the outage
	// injector applies the slot and before the probe round — the hook a
	// decentralised directory uses to Sync ring liveness with the
	// injected outages and to sample per-slot series. slot is the
	// campaign offset (0 ≤ slot < Slots).
	EachSlot func(ctx context.Context, r *Run, slot int) error

	// Events is the script, fired in At order (ties keep script order).
	Events []Event

	// Collect computes scenario metrics into the report after the crawl
	// and scrape phases. Check then asserts on the finished report; a
	// non-nil error marks the report failed and is returned by Run.
	Collect func(r *Run, rep *Report) error
	Check   func(rep *Report) error
}

// Run is the live state of an executing scenario, handed to event hooks and
// Collect.
type Run struct {
	Scenario *Scenario
	World    *dataset.World
	H        *simnet.Harness
	Injector *simnet.Injector
	Log      *crawler.ProbeLog
	// Result is the assembled campaign artefact set; nil until the crawl
	// and scrape phases complete (i.e. during events), set before Collect.
	Result *simnet.CampaignResult

	domains []string
	known   map[string]bool
	seeds   []string
	mon     *crawler.Monitor
	rounds  int // probe rounds completed so far
	report  *Report
}

// Domains returns the current probe population, in probe order.
func (r *Run) Domains() []string { return append([]string(nil), r.domains...) }

// slotTime pins an absolute probe slot to its calendar time.
func slotTime(slot int) time.Time {
	return dataset.Day(0).Add(time.Duration(slot) * simnet.SlotDuration)
}

// AddDomain adds a newly known domain to the probe population. Its
// unobserved past — every round already probed — is backfilled as offline:
// an instance the index has never seen is indistinguishable from a dead
// one. Known domains are a no-op.
func (r *Run) AddDomain(domain string) {
	if r.known[domain] {
		return
	}
	r.known[domain] = true
	for k := 0; k < r.rounds; k++ {
		r.Log.Add([]crawler.Sample{{
			Domain: domain,
			At:     slotTime(r.Scenario.StartSlot + k),
			Online: false,
		}})
	}
	r.domains = append(r.domains, domain)
}

// Kill pins a domain down for the rest of the campaign (injector kill).
func (r *Run) Kill(domain string) { r.Injector.Kill(domain) }

// Snapshot is a mid-campaign crawl: the §3 toot and follower datasets as
// observed at the instant an event fired, rebuilt into a world.
type Snapshot struct {
	// Slot is the campaign slot offset the snapshot was taken at.
	Slot int
	// Res carries the crawl artefacts (its Log and Traces cover only the
	// rounds probed so far).
	Res *simnet.CampaignResult
	// World is the dataset rebuilt from the snapshot artefacts; Names the
	// account name of every rebuilt user id.
	World *dataset.World
	Names []string
}

// CrawlNow runs the toot crawl and follower scrape against the network as
// it stands — the paper's crawl phase executed mid-campaign — and rebuilds
// the observed world from the artefacts. The crawl costs virtual, not
// wall, time; probing resumes at the next slot's pinned timestamp.
func (r *Run) CrawlNow(ctx context.Context) (*Snapshot, error) {
	sc := r.Scenario
	traces, _ := r.Log.ToTraceSet(dataset.SlotsPerDay)
	res := &simnet.CampaignResult{
		Domains:   r.Domains(),
		Log:       r.Log,
		Traces:    traces,
		StartSlot: sc.StartSlot,
		FinalSlot: sc.StartSlot + r.rounds - 1,
	}
	err := r.H.CrawlPhase(ctx, simnet.CampaignConfig{
		CrawlWorkers: sc.CrawlWorkers, ScrapeWorkers: sc.ScrapeWorkers, Fleet: sc.Fleet,
	}, res)
	if err != nil {
		return nil, err
	}
	w, names := simnet.Rebuild(res)
	return &Snapshot{Slot: r.rounds, Res: res, World: w, Names: names}, nil
}

// Seeds returns the scenario's discovery seed domains.
func (r *Run) Seeds() []string { return append([]string(nil), r.seeds...) }

// discover runs one discovery round — the scenario's custom Discoverer if
// set, a snowball round from the scenario seeds otherwise — and adds fresh
// domains to the probe population, recording the round in the report.
func (r *Run) discover(ctx context.Context, atSlot int) {
	var found []string
	if r.Scenario.Discoverer != nil {
		found = r.Scenario.Discoverer(ctx, r)
	} else {
		d := &crawler.Discoverer{Client: r.H.Client, Workers: r.Scenario.ProbeWorkers}
		found = d.Discover(ctx, r.seeds)
	}
	fresh := make([]string, 0, 2)
	for _, dom := range found { // found is sorted
		if !r.known[dom] {
			fresh = append(fresh, dom)
		}
	}
	for _, dom := range fresh {
		r.AddDomain(dom)
	}
	r.report.Discoveries = append(r.report.Discoveries, DiscoveryRecord{
		Slot:  atSlot,
		Known: len(r.domains),
		Found: fresh,
	})
}

// Run executes the scenario end to end and returns its report. The report
// is byte-reproducible: the same scenario and seed always produce identical
// Encode output. Run returns the report even when the scenario's Check
// fails (the error says why; the report records the failure).
//
// A Scenario value may be Run repeatedly, but not concurrently with itself:
// scenarios are allowed to carry per-run state between their events and
// Collect hooks.
func (sc *Scenario) Run(ctx context.Context) (*Report, error) {
	if sc.Slots <= 0 {
		return nil, fmt.Errorf("scenario %s: needs a positive slot count", sc.Name)
	}
	events := append([]Event(nil), sc.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		if ev.At < 0 || ev.At >= sc.Slots {
			return nil, fmt.Errorf("scenario %s: event %q at slot %d outside [0,%d)",
				sc.Name, ev.Name, ev.At, sc.Slots)
		}
	}

	w := sc.World(sc.Seed)
	h, err := simnet.New(ctx, w, sc.Options)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	domains := h.Net.Domains()
	r := &Run{
		Scenario: sc,
		World:    w,
		H:        h,
		Injector: simnet.NewInjector(h.Net, domains, w.Traces),
		Log:      crawler.NewProbeLog(),
		domains:  append([]string(nil), domains...),
		known:    make(map[string]bool, len(domains)),
		seeds:    append([]string(nil), domains...),
	}
	for _, d := range domains {
		r.known[d] = true
	}
	rep := &Report{
		Scenario:  sc.Name,
		Title:     sc.Title,
		Paper:     sc.Paper,
		Seed:      sc.Seed,
		StartSlot: sc.StartSlot,
		Slots:     sc.Slots,
		Instances: len(domains),
	}
	r.report = rep
	r.mon = &crawler.Monitor{
		Client:  h.Client,
		Workers: sc.ProbeWorkers,
		Clock:   h.Clock,
	}

	ei := 0
	for s := 0; s < sc.Slots; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for ei < len(events) && events[ei].At <= s {
			ev := events[ei]
			ei++
			if err := ev.Do(ctx, r); err != nil {
				return nil, fmt.Errorf("scenario %s: event %q: %w", sc.Name, ev.Name, err)
			}
			rep.Events = append(rep.Events, EventRecord{Slot: s, Name: ev.Name})
		}
		if sc.DiscoverEvery > 0 && s > 0 && s%sc.DiscoverEvery == 0 {
			r.discover(ctx, s)
		}
		slot := sc.StartSlot + s
		r.Injector.Apply(slot)
		// Pin the round's sample timestamp to the slot's calendar time;
		// virtual time itself may already have run ahead (backoffs, event
		// crawls and discovery rounds all stretch the elastic clock).
		at := slotTime(slot)
		h.Clock.AdvanceTo(at)
		if sc.EachSlot != nil {
			if err := sc.EachSlot(ctx, r, s); err != nil {
				return nil, fmt.Errorf("scenario %s: each-slot at %d: %w", sc.Name, s, err)
			}
		}
		r.mon.Domains = r.domains
		r.mon.Now = func() time.Time { return at }
		r.Log.Add(r.mon.PollOnce(ctx))
		r.rounds = s + 1
	}

	// The §3 crawl and scrape phases against whatever is reachable at the
	// final slot, over the full (possibly grown) population.
	snap, err := r.CrawlNow(ctx)
	if err != nil {
		return nil, err
	}
	r.Result = snap.Res
	rep.FinalDomains = len(r.domains)

	if sc.Collect != nil {
		if err := sc.Collect(r, rep); err != nil {
			return nil, fmt.Errorf("scenario %s: collect: %w", sc.Name, err)
		}
	}
	rep.sortPayload()
	rep.Passed = true
	if sc.Check != nil {
		if err := sc.Check(rep); err != nil {
			rep.Passed = false
			rep.Failure = err.Error()
			return rep, fmt.Errorf("scenario %s: check failed: %w", sc.Name, err)
		}
	}
	return rep, nil
}
