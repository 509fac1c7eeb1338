package scenario

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// ChaosStorm runs the §3 campaign through the chaos transport: a generated
// byzantine fault schedule (hangs, resets, truncation, corruption, 5xx
// storms, 429 pushback, flapping) bites the first half of the probing
// window with bounded hits, and three always-up instances turn persistently
// hostile at the window's midpoint. The hardened client — per-request
// deadlines, Retry-After-aware retries, the per-host circuit breaker —
// must absorb the transient half without a trace (the convergence
// invariant) and quarantine exactly the persistently hostile hosts, so the
// recovered world matches the subset expectation byte for byte.
func ChaosStorm(seed uint64) *Scenario {
	if seed == 0 {
		seed = 29
	}
	const (
		startSlot = 1 * dataset.SlotsPerDay
		slots     = 1 * dataset.SlotsPerDay
		onsetRel  = slots / 3 // persistent faults begin here; transients end
		retries   = 4
		hits      = 2
	)

	sc := &Scenario{
		Name:  "chaos-storm",
		Title: "Byzantine fault schedule against the hardened crawler",
		Paper: "§3 (crawler robustness; §4.4 availability under faults)",
		Seed:  seed,
		World: func(seed uint64) *dataset.World {
			cfg := gen.TinyConfig(seed)
			cfg.Instances = 24
			cfg.Users = 360
			cfg.Days = 3
			cfg.MassExpiryDay = -1
			return gen.Generate(cfg)
		},
		StartSlot: startSlot,
		Slots:     slots,
	}

	// Size the breaker from the world the scenario will actually run: the
	// failure budget must sit strictly between the worst consecutive-failure
	// run a recoverable host can produce and the pressure a persistent fault
	// applies, or the quarantine set stops being crisp. Scenario assertions
	// are tuned for the default seed; an untuned seed that breaks the
	// separation fails loudly here instead of producing a mushy report.
	w := sc.World(seed)
	wholeDown := make(map[int]bool)
	realWorst := 0
	for i := range w.Instances {
		run, worst, downs := 0, 0, 0
		for s := startSlot; s < startSlot+slots; s++ {
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
		if downs == slots {
			wholeDown[i] = true
		} else if worst > realWorst {
			realWorst = worst
		}
	}
	margin := hits + retries
	low := realWorst*retries + margin
	persistPressure := (slots - onsetRel) * retries
	budget := low + (persistPressure-low)/2
	if low+margin >= budget || budget+margin >= persistPressure || budget+margin >= slots*retries {
		panic(fmt.Sprintf("scenario chaos-storm: seed %d world breaks the breaker sizing (low %d, budget %d, persistent %d)",
			seed, low, budget, persistPressure))
	}
	var targets []int32
	for i := range w.Instances {
		if w.Instances[i].BlocksCrawl || wholeDown[i] {
			continue
		}
		down := false
		for s := startSlot; s < startSlot+slots; s++ {
			if w.Traces.Traces[i].IsDown(s) {
				down = true
				break
			}
		}
		if !down {
			targets = append(targets, int32(i))
		}
		if len(targets) == 3 {
			break
		}
	}
	if len(targets) < 2 {
		panic(fmt.Sprintf("scenario chaos-storm: seed %d world has only %d always-up crawlable instances", seed, len(targets)))
	}

	sc.Options = simnet.Options{
		MaxTootsPerUser: tootCap,
		Retries:         retries,
		RequestTimeout:  10 * time.Second,
		Breaker: &crawler.BreakerConfig{
			Threshold:   8,
			Cooldown:    30 * time.Second,
			MaxCooldown: 4 * time.Minute,
			Budget:      budget,
		},
	}

	// Transient episodes are confined to [startSlot, onset): past the onset
	// only the persistent faults remain, so a transient episode can never
	// shadow a persistent one (FaultSet.At prefers the earlier start) and
	// the persistent failure accrual is an unbroken run.
	var fs *sim.FaultSet
	sc.Events = []Event{{
		At:   0,
		Name: "arm byzantine fault schedule",
		Do: func(ctx context.Context, r *Run) error {
			fs = sim.GenFaultSchedule(len(r.World.Instances), sim.FaultConfig{
				Seed:           sc.Seed,
				Slots:          startSlot + slots,
				Faults:         5,
				MinSlots:       1,
				MeanSlots:      3,
				Hits:           hits,
				WindowStart:    startSlot,
				WindowEnd:      startSlot + onsetRel,
				Persistent:     targets,
				PersistentFrom: startSlot + onsetRel,
			})
			r.Injector.BindFaults(r.H.Faults, fs)
			return nil
		},
	}}

	sc.Collect = func(r *Run, rep *Report) error {
		// The schedule itself, straight from the deterministic generator.
		episodes, kindCount := 0, make(map[sim.FaultKind]int)
		for i := range fs.Faults {
			for _, f := range fs.Faults[i] {
				if f.Persistent() {
					continue
				}
				episodes++
				kindCount[f.Kind]++
			}
		}
		rep.Add("fault.episodes", float64(episodes))
		for k, n := range kindCount {
			rep.Add("fault.kind."+k.String(), float64(n))
		}
		rep.Add("fault.persistent_hosts", float64(len(fs.PersistentInstances())))

		// The quarantine set must be exactly the hopeless hosts: the ones
		// down for the whole window plus the persistently hostile targets.
		want := make([]string, 0, len(wholeDown)+len(targets))
		for i := range wholeDown {
			want = append(want, r.World.Instances[i].Domain)
		}
		for _, id := range targets {
			want = append(want, r.World.Instances[id].Domain)
		}
		sort.Strings(want)
		got := r.H.Client.Breaker.QuarantinedHosts()
		rep.Add("quarantine.count", float64(len(got)))
		rep.Add("quarantine.expected", float64(len(want)))
		match := len(got) == len(want)
		for i := range got {
			if !match || got[i] != want[i] {
				match = false
				break
			}
		}
		rep.Add("quarantine.match", b2f(match))
		st := r.H.Client.Breaker.Stats()
		rep.Add("breaker.opens", float64(st.Opens))
		rep.Add("breaker.failures", float64(st.Failures))

		// Convergence: the recovered world must be byte-identical to the
		// subset expectation — ground truth with the hostile targets forced
		// down from the onset. Transient faults must not leave a byte.
		forced := sc.World(sc.Seed)
		for _, id := range targets {
			forced.Traces.Traces[id].SetDownRange(startSlot+onsetRel, startSlot+slots)
		}
		expected, _ := simnet.ExpectedWorld(forced, simnet.ExpectedConfig{
			StartSlot: startSlot, Slots: slots, MaxTootsPerUser: tootCap,
		})
		recovered, _ := simnet.Rebuild(r.Result)
		same, err := sameBytes(expected, recovered)
		if err != nil {
			return err
		}
		rep.Add("convergence.byte_equal", b2f(same))

		// What the persistent faults cost against a fault-free campaign.
		clean, _ := simnet.ExpectedWorld(r.World, simnet.ExpectedConfig{
			StartSlot: startSlot, Slots: slots, MaxTootsPerUser: tootCap,
		})
		bias := analysis.ProbeLossBias(clean, recovered)
		rep.Add("coverage.users", bias.UserCoverage)
		rep.Add("coverage.toots", bias.TootCoverage)
		rep.Add("coverage.edges", bias.EdgeCoverage)
		return nil
	}

	sc.Check = func(rep *Report) error {
		if rep.MustMetric("convergence.byte_equal") != 1 {
			return fmt.Errorf("recovered world does not match the forced-down expectation byte for byte")
		}
		if rep.MustMetric("quarantine.match") != 1 {
			return fmt.Errorf("quarantine set is not exactly the hopeless hosts (%0.f vs %0.f expected)",
				rep.MustMetric("quarantine.count"), rep.MustMetric("quarantine.expected"))
		}
		if rep.MustMetric("fault.episodes") == 0 {
			return fmt.Errorf("the schedule injected no transient episodes")
		}
		for _, m := range []string{"coverage.users", "coverage.toots", "coverage.edges"} {
			c := rep.MustMetric(m)
			if c <= 0 || c >= 1 {
				return fmt.Errorf("%s = %.4f, want in (0,1): losing the hostile hosts must cost coverage", m, c)
			}
		}
		return nil
	}
	return sc
}
