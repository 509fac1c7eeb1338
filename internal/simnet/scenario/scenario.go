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

	"repro/internal/crawler"
	"repro/internal/crawler/fleet"
	"repro/internal/dataset"
	"repro/internal/simnet"
)

// Event is one scripted action: Do fires once, at the start of campaign slot
// offset At (0 ≤ At < Slots), before that slot is applied.
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
	// Fleet, when set, routes every crawl phase (CrawlNow and the final
	// crawl) through the distributed crawler fleet — coordinator, leased
	// workers, work-stealing frontier — instead of the flat TootCrawler
	// pool. The run's coordination counters land in Result.FleetStats.
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
// Collect. It is the campaign's probe loop (simnet.Campaign: the injector,
// the probe log, the population and AddDomain) plus the harness it runs on.
type Run struct {
	*simnet.Campaign
	Scenario *Scenario
	World    *dataset.World
	H        *simnet.Harness
	// Result is the assembled campaign artefact set; nil until the crawl
	// and scrape phases complete (i.e. during events), set before Collect.
	Result *simnet.CampaignResult

	seeds  []string
	report *Report
}

// Snapshot is a mid-campaign crawl: the §3 toot and follower datasets as
// observed at the instant an event fired, rebuilt into a world.
type Snapshot struct {
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
	res := r.Probed()
	if err := r.H.CrawlPhase(ctx, simnet.CampaignConfig{Fleet: r.Scenario.Fleet}, res); err != nil {
		return nil, err
	}
	w, names := simnet.Rebuild(res)
	return &Snapshot{Res: res, World: w, Names: names}, nil
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
		d := &crawler.Discoverer{Client: r.H.Client}
		found = d.Discover(ctx, r.seeds)
	}
	var fresh []string
	for _, dom := range found { // found is sorted
		if r.AddDomain(dom) {
			fresh = append(fresh, dom)
		}
	}
	r.report.Discoveries = append(r.report.Discoveries, DiscoveryRecord{
		Slot:  atSlot,
		Known: len(r.Domains()),
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
	r := &Run{
		Campaign: h.NewCampaign(sc.StartSlot, 0),
		Scenario: sc,
		World:    w,
		H:        h,
	}
	r.seeds = r.Domains() // the population only grows: this stays the initial one
	rep := &Report{
		Scenario:  sc.Name,
		Title:     sc.Title,
		Paper:     sc.Paper,
		Seed:      sc.Seed,
		StartSlot: sc.StartSlot,
		Slots:     sc.Slots,
		Instances: len(r.seeds),
	}
	r.report = rep

	// Each slot: the events due, a discovery round, then the probe round —
	// Apply, the EachSlot hook, Probe. Events run before Apply, so they see
	// the previous slot's availability.
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
		r.Apply()
		if sc.EachSlot != nil {
			if err := sc.EachSlot(ctx, r, s); err != nil {
				return nil, fmt.Errorf("scenario %s: each-slot at %d: %w", sc.Name, s, err)
			}
		}
		r.Probe(ctx)
	}

	// The §3 crawl and scrape phases against whatever is reachable at the
	// final slot, over the full (possibly grown) population.
	snap, err := r.CrawlNow(ctx)
	if err != nil {
		return nil, err
	}
	r.Result = snap.Res
	rep.FinalDomains = len(r.Domains())

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
