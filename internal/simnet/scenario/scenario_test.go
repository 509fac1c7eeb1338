package scenario

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// runTwice executes the scenario twice from scratch and requires the two
// reports to be byte-identical — the engine's reproducibility contract:
// same scenario, same seed, same bytes.
func runTwice(t *testing.T, build func(seed uint64) *Scenario) *Report {
	t.Helper()
	start := time.Now()
	rep1, err := build(0).Run(context.Background())
	if err != nil {
		if rep1 != nil {
			if b, encErr := rep1.Encode(); encErr == nil {
				t.Logf("failing report:\n%s", b)
			}
		}
		t.Fatal(err)
	}
	rep2, err := build(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := rep1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two runs produced different reports:\n--- first\n%s\n--- second\n%s", b1, b2)
	}
	if !rep1.Passed {
		t.Fatalf("report not marked passed: %s", rep1.Failure)
	}
	t.Logf("%s: two runs in %v wall, report %d bytes", rep1.Scenario, time.Since(start), len(b1))
	return rep1
}

// TestScenarioOutageStorm: correlated AS-wide storms replayed mid-campaign
// must be fully observed by the prober, bias the recovered Fig 7/10
// analyses upwards, and cost crawl coverage — byte-identically across runs.
func TestScenarioOutageStorm(t *testing.T) {
	rep := runTwice(t, OutageStorm)
	if rep.MustMetric("storm.observed_frac") != 1 {
		t.Fatal("prober missed injected storm slots")
	}
	if rep.MustMetric("coverage.toots") >= 1 {
		t.Fatal("crawl-window storm cost no toot coverage")
	}
	if got, want := rep.MustMetric("storm.count"), 2.0*3+1; got != want {
		t.Fatalf("storm count %v, want %v", got, want)
	}
}

// TestScenarioChurn: instances registered mid-campaign must be found by the
// Discoverer snowball on its next round, probed as up from then on, and
// harvested by the final crawl; a killed instance must flatline.
func TestScenarioChurn(t *testing.T) {
	rep := runTwice(t, ChurnDuringCrawl)
	if got := rep.MustMetric("discovery.newbie_slot"); got != 144 {
		t.Fatalf("newbies discovered at slot %v, want 144 (next snowball round after slot-100 registration)", got)
	}
	if rep.MustMetric("crawl.newbie_authors") != 2 {
		t.Fatal("crawl did not harvest both newbie authors")
	}
	if rep.FinalDomains != rep.Instances+2 {
		t.Fatalf("final population %d, want %d", rep.FinalDomains, rep.Instances+2)
	}
}

// TestScenarioDHTChurn: the DHT directory must out-survive the centralised
// registry baseline the tail storm kills, surface the newbie via DHT
// bootstrap at its first post-registration round, keep the killed
// instance's presence record resolvable, route in O(log N), and place
// replicas by ring keyspace to beat No-Rep availability.
func TestScenarioDHTChurn(t *testing.T) {
	rep := runTwice(t, DHTChurn)
	if got := rep.MustMetric("discovery.newbie_slot"); got != 96 {
		t.Fatalf("newbie discovered at slot %v, want 96 (next bootstrap round after slot-60 registration)", got)
	}
	if d, c := rep.MustMetric("dir.lookup_success.dht_mean"), rep.MustMetric("dir.lookup_success.central_mean"); d <= c {
		t.Fatalf("DHT lookup success %.4f not above central %.4f", d, c)
	}
	if rep.MustMetric("kill.victim_presence_resolvable") != 1 {
		t.Fatal("killed instance's presence record lost from the ring")
	}
	if dhtF, snowF := rep.MustMetric("storm.discovery.dht_found"), rep.MustMetric("storm.discovery.snowball_found"); dhtF <= snowF {
		t.Fatalf("DHT bootstrap (%.0f) did not out-discover snowball (%.0f) under the storm", dhtF, snowF)
	}
	if rep.FinalDomains != rep.Instances+1 {
		t.Fatalf("final population %d, want %d", rep.FinalDomains, rep.Instances+1)
	}
}

// TestScenarioLiveReplication: the §5.2 strategies evaluated on the world a
// live campaign crawled, under the down mask the final probe round actually
// measured, must reproduce the paper's ordering — random replication
// recovers less recovered-graph connectivity than subscription-based
// replication.
func TestScenarioLiveReplication(t *testing.T) {
	rep := runTwice(t, LiveReplication)
	no := rep.MustMetric("repl.connected_frac.no_rep")
	r1 := rep.MustMetric("repl.connected_frac.r_rep_1")
	sub := rep.MustMetric("repl.connected_frac.s_rep")
	if !(no < r1 && r1 < sub) {
		t.Fatalf("§5.2 ordering violated: No-Rep %.4f, R-Rep(1) %.4f, S-Rep %.4f", no, r1, sub)
	}
	if rep.MustMetric("kill.dead_instances") < 24 {
		t.Fatal("kill waves did not register in the final probe round")
	}
}

// TestScenarioIncrementalRecrawl: the delta recrawl merged into window A's
// world must be byte-identical to the engine's own full-window crawl, must
// fetch exactly the content posted after the checkpoint, and must cost a
// fraction of the full crawl's toot volume.
func TestScenarioIncrementalRecrawl(t *testing.T) {
	rep := runTwice(t, IncrementalRecrawl)
	if rep.MustMetric("merge.byte_equal") != 1 {
		t.Fatal("merged world not byte-identical to the full-window crawl")
	}
	if got, want := rep.MustMetric("crawl.new_toots"), rep.MustMetric("posts.fresh"); got != want || got == 0 {
		t.Fatalf("delta crawl fetched %.0f new toots, want the %.0f posted mid-window", got, want)
	}
	if dt, ft := rep.MustMetric("crawl.delta_toots"), rep.MustMetric("crawl.full_toots"); dt*2 >= ft {
		t.Fatalf("delta crawl (%.0f toots) is not substantially cheaper than the full crawl (%.0f)", dt, ft)
	}
	series := rep.Series
	found := false
	for _, s := range series {
		if s.Name == "downtime.window_mean" && len(s.Values) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("per-window downtime series missing from the report")
	}
}

// TestScenarioFleetWorkerDeath: the leased crawl with scripted worker
// deaths must re-assign the abandoned leases and still produce a world
// byte-identical to a single-worker crawl — with a byte-identical report
// across runs, despite nondeterministic scheduling.
func TestScenarioFleetWorkerDeath(t *testing.T) {
	rep := runTwice(t, FleetWorkerDeath)
	if rep.MustMetric("equivalence.byte_identical") != 1 {
		t.Fatal("harvest with worker deaths not byte-identical to the single-worker crawl")
	}
	if got := rep.MustMetric("fleet.dead"); got != 2 {
		t.Fatalf("%.0f workers died, want the 2 scripted deaths", got)
	}
	if got := rep.MustMetric("fleet.leases"); got != rep.MustMetric("fleet.domains")+2 {
		t.Fatalf("lease count %v does not show the two re-issues", got)
	}
}

// TestScenarioChaosStorm: a byzantine fault schedule against the hardened
// client — the transient half must leave no byte of trace (the recovered
// world matches the forced-down expectation exactly), the breaker must
// quarantine precisely the hopeless hosts, and the report must be
// byte-identical across two runs.
func TestScenarioChaosStorm(t *testing.T) {
	rep := runTwice(t, ChaosStorm)
	if rep.MustMetric("convergence.byte_equal") != 1 {
		t.Fatal("chaos campaign did not converge to the expected bytes")
	}
	if rep.MustMetric("quarantine.match") != 1 {
		t.Fatal("quarantine set is not exactly the hopeless hosts")
	}
	if rep.MustMetric("fault.episodes") == 0 {
		t.Fatal("no transient fault episodes were scheduled")
	}
	if c := rep.MustMetric("coverage.toots"); c <= 0 || c >= 1 {
		t.Fatalf("toot coverage %.4f, want in (0,1): the hostile hosts must cost harvest", c)
	}
}

// TestScenarioRegistry: the registry resolves every name and rejects
// unknowns.
func TestScenarioRegistry(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("registry has %d scenarios, want 7", len(names))
	}
	for _, n := range names {
		sc, err := ByName(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != n {
			t.Fatalf("ByName(%q) built scenario %q", n, sc.Name)
		}
		if sc.Seed == 0 {
			t.Fatalf("scenario %q has no default seed", n)
		}
	}
	if _, err := ByName("no-such-scenario", 0); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestScenarioEventValidation: events outside the campaign window are
// rejected before anything runs.
func TestScenarioEventValidation(t *testing.T) {
	sc, err := ByName("churn-during-crawl", 0)
	if err != nil {
		t.Fatal(err)
	}
	sc.Events = append(sc.Events, Event{At: sc.Slots, Name: "too late",
		Do: func(context.Context, *Run) error { return nil }})
	if _, err := sc.Run(context.Background()); err == nil {
		t.Fatal("out-of-window event did not error")
	}
}

// TestScenarioSeedChangesReport: a different seed must change the reported
// bytes (the engine really is driven by the seed, not by fixtures).
func TestScenarioSeedChangesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("seed-sensitivity check skipped in -short mode")
	}
	base, err := OutageStorm(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A nearby seed: the campaign must still run end-to-end (checks may
	// legitimately fail for an untuned seed, but the loop must not break),
	// and the report must differ.
	other, err := OutageStorm(12).Run(context.Background())
	if err != nil && other == nil {
		t.Fatal(err)
	}
	b1, _ := base.Encode()
	b2, _ := other.Encode()
	if bytes.Equal(b1, b2) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestScenarioFullWindowOutageStorm widens the storm scenario to a longer
// probing window — the full-mode matrix entry exercising a multi-day storm
// replay (skipped under -short, where the PR-gate matrix runs).
func TestScenarioFullWindowOutageStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("full-window storm scenario skipped in -short mode")
	}
	sc := outageStorm(0, 4)
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MustMetric("storm.observed_frac") != 1 {
		t.Fatal("prober missed injected storm slots in the full window")
	}
}
