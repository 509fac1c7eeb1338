package simnet

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/sim"
)

// The chaos convergence oracle. The campaign runs against a fault schedule
// injected by the FaultTransport, with the hardened client (per-request
// deadlines, retry budgets, circuit breaker) absorbing the damage. Two
// invariants are pinned, across worker counts and GOMAXPROCS:
//
//  1. Transient-only schedules leave no trace: the rebuilt world is
//     byte-identical to the fault-free campaign's, and nothing beyond the
//     baseline's hopeless hosts is quarantined.
//  2. Persistent schedules terminate with a well-formed subset world:
//     exactly the persistently-faulted domains join the quarantine set,
//     and the rebuilt world matches ExpectedWorld over ground truth with
//     those domains' availability overwritten as down from the fault
//     onset — the missing domains are exactly the quarantined ones.
//
// Why the numbers below hang together (all derived in TestChaosConvergence
// from the world's actual traces, so a reseeded world fails loudly instead
// of silently weakening the oracle):
//
//   - chaosRetries > chaosHits: every transient fault episode spends at
//     most Hits failing requests per (domain, slot, endpoint class), so a
//     client with more per-call attempts than that always outlasts it.
//   - Budget sits strictly between the worst consecutive-failure run real
//     outages can produce ((maxDownRun+2)*retries) and the pressure a
//     persistent fault applies ((slots-persistentFrom)*retries), so real
//     outages never quarantine beyond the baseline and persistent faults
//     always do.
const (
	chaosStartSlot = 2 * dataset.SlotsPerDay
	chaosSlots     = dataset.SlotsPerDay / 2
	chaosRetries   = 4
	chaosHits      = 2
	// chaosPersistFrom is the window-relative onset of persistent faults.
	chaosPersistFrom = 16
)

func chaosWorld() *dataset.World {
	cfg := gen.TinyConfig(17)
	cfg.Instances = 12
	cfg.Users = 180
	cfg.Days = 6
	return gen.Generate(cfg)
}

// maxDownRun returns the longest consecutive down-run any *recoverable*
// instance shows inside the probed window. Instances down for the whole
// window are excluded: they exceed any useful budget and quarantine in the
// fault-free baseline too — deterministically, and byte-invisibly, since a
// fast-failed probe of a down host records exactly what a full probe would.
func maxDownRun(w *dataset.World) int {
	maxRun := 0
	for i := range w.Instances {
		run, worst, downs := 0, 0, 0
		for s := chaosStartSlot; s < chaosStartSlot+chaosSlots; s++ {
			if w.Traces.Traces[i].IsDown(s) {
				run++
				downs++
				if run > worst {
					worst = run
				}
			} else {
				run = 0
			}
		}
		if downs < chaosSlots && worst > maxRun {
			maxRun = worst
		}
	}
	return maxRun
}

func chaosBreaker(budget int) *crawler.BreakerConfig {
	return &crawler.BreakerConfig{
		Threshold:   8,
		Cooldown:    30 * time.Second,
		MaxCooldown: 4 * time.Minute,
		Budget:      budget,
	}
}

func chaosOptions(budget int) Options {
	return Options{
		MaxTootsPerUser: campTootCap,
		Retries:         chaosRetries,
		Backoff:         50 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
		Breaker:         chaosBreaker(budget),
	}
}

// runChaosCampaign runs one campaign with workers toot-crawl workers under
// the given fault schedule on a fresh harness.
func runChaosCampaign(t *testing.T, opts Options, fs *sim.FaultSet, workers int) (*CampaignResult, *Harness) {
	t.Helper()
	ctx := context.Background()
	h, err := New(ctx, chaosWorld(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		StartSlot:    chaosStartSlot,
		Slots:        chaosSlots,
		ProbeWorkers: 4,
		CrawlWorkers: workers,
		Faults:       fs,
	}
	res, err := h.RunCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, h
}

// transientSchedule scripts bounded-hit faults of every kind over the whole
// campaign population and window.
func transientSchedule(n int) *sim.FaultSet {
	return sim.GenFaultSchedule(n, sim.FaultConfig{
		Seed:        23,
		Slots:       chaosStartSlot + chaosSlots,
		Faults:      6,
		MinSlots:    1,
		MeanSlots:   4,
		Hits:        chaosHits,
		WindowStart: chaosStartSlot,
		WindowEnd:   chaosStartSlot + chaosSlots,
	})
}

// persistentTargets picks the instances a persistent schedule should break:
// always-up, crawlable domains, so their loss is visible as missing
// harvest. Returns ground-truth ids.
func persistentTargets(w *dataset.World) []int32 {
	var out []int32
	for i := range w.Instances {
		if w.Instances[i].BlocksCrawl {
			continue
		}
		down := 0
		for s := chaosStartSlot; s < chaosStartSlot+chaosSlots; s++ {
			if w.Traces.Traces[i].IsDown(s) {
				down++
			}
		}
		if down == 0 {
			out = append(out, int32(i))
		}
		if len(out) == 3 {
			break
		}
	}
	return out
}

func quarantined(h *Harness) []string {
	if h.Client.Breaker == nil {
		return nil
	}
	return h.Client.Breaker.QuarantinedHosts()
}

func TestChaosConvergence(t *testing.T) {
	w := chaosWorld()

	// Derive the breaker budget from the world's actual traces so the
	// separation argument is checked, not assumed.
	realWorst := (maxDownRun(w) + 2) * chaosRetries
	persistPressure := (chaosSlots - chaosPersistFrom) * chaosRetries
	budget := realWorst + (persistPressure-realWorst)/2
	// The budget must also fall short of a whole-window outage, so the
	// hopeless hosts quarantine in every run, baseline included.
	if realWorst+chaosRetries >= budget || budget+chaosRetries >= persistPressure ||
		budget >= chaosSlots*chaosRetries {
		t.Fatalf("test sizing broken: realWorst=%d budget=%d persistPressure=%d",
			realWorst, budget, persistPressure)
	}

	// Fault-free baselines: the hardened client must be byte-transparent,
	// so a plain client (no breaker, no deadline) and the hardened one
	// must rebuild identical worlds.
	plainOpts := Options{MaxTootsPerUser: campTootCap, Retries: chaosRetries, Backoff: 50 * time.Millisecond}
	plainRes, _ := runChaosCampaign(t, plainOpts, nil, 1)
	plainWorld, _ := Rebuild(plainRes)
	plainBytes := saveBytes(t, plainWorld)

	baseRes, baseH := runChaosCampaign(t, chaosOptions(budget), nil, 1)
	baseWorld, _ := Rebuild(baseRes)
	baseBytes := saveBytes(t, baseWorld)
	if !bytes.Equal(plainBytes, baseBytes) {
		t.Fatal("hardened fault-free campaign differs from the plain client's")
	}

	// The baseline quarantine set: hosts down for the whole window rack up
	// slots*retries consecutive failures — past any useful budget — and
	// that is the breaker doing its job (they are byte-invisible: down is
	// down). The set must be deterministic; chaos runs may not grow it
	// except by the persistently-faulted domains.
	baseQuar := quarantined(baseH)
	for _, dom := range baseQuar {
		for i := range w.Instances {
			if w.Instances[i].Domain != dom {
				continue
			}
			for s := chaosStartSlot; s < chaosStartSlot+chaosSlots; s++ {
				if !w.Traces.Traces[i].IsDown(s) {
					t.Fatalf("baseline quarantined %s, which was up at slot %d", dom, s)
				}
			}
		}
	}

	targets := persistentTargets(w)
	if len(targets) < 2 {
		t.Fatalf("world has only %d always-up crawlable instances", len(targets))
	}
	var targetDomains []string
	for _, id := range targets {
		targetDomains = append(targetDomains, w.Instances[id].Domain)
	}
	sort.Strings(targetDomains)

	transient := transientSchedule(len(w.Instances))
	if !transient.Transient() {
		t.Fatal("transient schedule has persistent faults")
	}
	persistent := sim.GenFaultSchedule(len(w.Instances), sim.FaultConfig{
		Seed:           23,
		Slots:          chaosStartSlot + chaosSlots,
		Faults:         6,
		MinSlots:       1,
		MeanSlots:      4,
		Hits:           chaosHits,
		WindowStart:    chaosStartSlot,
		WindowEnd:      chaosStartSlot + chaosSlots,
		Persistent:     targets,
		PersistentFrom: chaosStartSlot + chaosPersistFrom,
	})

	// The persistent-phase oracle: ground truth with the targeted domains
	// forced down from the fault onset. ExpectedWorld then derives the
	// subset world a flawless campaign over *that* reality would recover.
	// Generation is deterministic, so a fresh world is a safe-to-mutate
	// clone of w.
	oracle := chaosWorld()
	for _, id := range targets {
		oracle.Traces.Traces[id].SetDownRange(chaosStartSlot+chaosPersistFrom, chaosStartSlot+chaosSlots)
	}
	expWorld, _ := ExpectedWorld(oracle, ExpectedConfig{
		StartSlot: chaosStartSlot, Slots: chaosSlots, MaxTootsPerUser: campTootCap,
	})
	expBytes := saveBytes(t, expWorld)
	if bytes.Equal(expBytes, baseBytes) {
		t.Fatal("persistent oracle equals the baseline; the targets are invisible")
	}

	oldProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(oldProcs)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4} {
			if testing.Short() && procs == 1 && workers > 1 {
				continue // the procs=4 entries keep full worker coverage
			}
			t.Run(fmt.Sprintf("procs=%d/workers=%d/transient", procs, workers), func(t *testing.T) {
				res, h := runChaosCampaign(t, chaosOptions(budget), transient, workers)
				world, _ := Rebuild(res)
				if !bytes.Equal(saveBytes(t, world), baseBytes) {
					t.Fatal("transient-only faults changed the rebuilt world bytes")
				}
				if q := quarantined(h); !equalStrings(q, baseQuar) {
					t.Fatalf("transient faults changed the quarantine set: %v, baseline %v", q, baseQuar)
				}
			})
			t.Run(fmt.Sprintf("procs=%d/workers=%d/persistent", procs, workers), func(t *testing.T) {
				res, h := runChaosCampaign(t, chaosOptions(budget), persistent, workers)
				world, _ := Rebuild(res)
				if !bytes.Equal(saveBytes(t, world), expBytes) {
					t.Fatal("persistent-fault world does not match the forced-down oracle")
				}
				// Exactly the targeted domains join the quarantine set.
				want := append(append([]string(nil), baseQuar...), targetDomains...)
				sort.Strings(want)
				if q := quarantined(h); !equalStrings(q, want) {
					t.Fatalf("quarantine set %v, want %v", q, want)
				}
				// Partial-harvest provenance: the quarantined targets are
				// recorded with the fault that cut them off.
				provByDomain := make(map[string]dataset.CrawlProvenance)
				for i, p := range world.Provenance {
					provByDomain[res.Domains[i]] = p
				}
				for _, dom := range targetDomains {
					p := provByDomain[dom]
					if p.Outcome == dataset.CrawlFull || p.Outcome == dataset.CrawlDelta {
						t.Fatalf("quarantined %s recorded a clean outcome %d", dom, p.Outcome)
					}
					if p.Fault == "" {
						t.Fatalf("quarantined %s carries no fault provenance", dom)
					}
				}
				// Quarantine ends a domain's crawl; its lease still
				// completes. Every quarantined domain must be a normal
				// completion, not an abandoned lease.
				if q := res.CrawlStats.Quarantined; q != len(baseQuar)+len(targetDomains) {
					t.Fatalf("quarantined-lease count %d, want %d", q, len(baseQuar)+len(targetDomains))
				}
			})
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
