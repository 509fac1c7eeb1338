package gen

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stats"
)

var (
	tinyOnce  sync.Once
	tinyWorld *dataset.World
)

// tiny returns a cached Tiny world so the shape tests share one build.
func tiny(t *testing.T) *dataset.World {
	t.Helper()
	tinyOnce.Do(func() { tinyWorld = Generate(TinyConfig(1)) })
	return tinyWorld
}

func TestGenerateDeterminism(t *testing.T) {
	w1 := Generate(TinyConfig(7))
	w2 := Generate(TinyConfig(7))
	if w1.Social.NumEdges() != w2.Social.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	if w1.TotalToots() != w2.TotalToots() {
		t.Fatal("same seed produced different toot totals")
	}
	for i, tr := range w1.Traces.Traces {
		if string(tr.AppendBinary(nil)) != string(w2.Traces.Traces[i].AppendBinary(nil)) {
			t.Fatalf("same seed produced different traces for instance %d", i)
		}
	}
	for i := range w1.Instances {
		if w1.Instances[i].Domain != w2.Instances[i].Domain ||
			w1.Instances[i].ASN != w2.Instances[i].ASN ||
			w1.Instances[i].Users != w2.Instances[i].Users {
			t.Fatalf("instance %d differs between same-seed builds", i)
		}
	}
	w3 := Generate(TinyConfig(8))
	if w3.Social.NumEdges() == w1.Social.NumEdges() && w3.TotalToots() == w1.TotalToots() {
		t.Fatal("different seeds produced identical worlds (suspicious)")
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{{}, {Instances: 10}, {Instances: 10, Users: 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for incomplete config")
				}
			}()
			Generate(cfg)
		}()
	}
}

func TestPopulationTotals(t *testing.T) {
	w := tiny(t)
	cfg := TinyConfig(1)
	if len(w.Instances) != cfg.Instances {
		t.Fatalf("instances = %d", len(w.Instances))
	}
	if w.TotalUsers() != cfg.Users || len(w.Users) != cfg.Users {
		t.Fatalf("users = %d/%d, want %d", w.TotalUsers(), len(w.Users), cfg.Users)
	}
	for i, in := range w.Instances {
		if in.Users < 1 {
			t.Fatalf("instance %d has no users", i)
		}
		if in.ID != int32(i) {
			t.Fatalf("instance %d has ID %d", i, in.ID)
		}
	}
	// Instance toot counters must equal the sum of their users' toots.
	sums := make([]int64, len(w.Instances))
	for _, u := range w.Users {
		sums[u.Instance] += int64(u.Toots)
		if int(u.JoinDay) < w.Instances[u.Instance].CreatedDay {
			t.Fatalf("user %d joined before its instance existed", u.ID)
		}
	}
	for i := range sums {
		if sums[i] != w.Instances[i].Toots {
			t.Fatalf("instance %d toot counter %d != user sum %d", i, w.Instances[i].Toots, sums[i])
		}
	}
}

func TestConcentration(t *testing.T) {
	w := tiny(t)
	if s := stats.TopShare(w.InstanceUserWeights(), 0.05); s < 0.5 || s > 0.98 {
		t.Fatalf("top-5%% user share = %.3f, want heavy concentration (§4.1: 90.6%% at paper scale)", s)
	}
	if s := stats.TopShare(w.InstanceTootWeights(), 0.05); s < 0.7 || s > 0.99 {
		t.Fatalf("top-5%% toot share = %.3f, want ≥0.7 (§4.1: 94.8%%)", s)
	}
}

func TestOpenClosedShape(t *testing.T) {
	w := tiny(t)
	var open, openUsers, closedUsers, openN, closedN float64
	var openActive, closedActive []float64
	for _, in := range w.Instances {
		if in.Open {
			open++
			openUsers += float64(in.Users)
			openN++
			openActive = append(openActive, in.MaxWeeklyActivePct)
		} else {
			closedUsers += float64(in.Users)
			closedN++
			closedActive = append(closedActive, in.MaxWeeklyActivePct)
		}
	}
	frac := open / float64(len(w.Instances))
	if frac < 0.33 || frac < 0.3 || frac > 0.63 {
		t.Fatalf("open fraction = %.3f, want ≈0.478", frac)
	}
	if openUsers/openN <= closedUsers/closedN {
		t.Fatal("open instances should be larger on average (§4.1: 613 vs 87)")
	}
	if stats.Median(closedActive) <= stats.Median(openActive) {
		t.Fatal("closed instances should be more engaged (Fig 2c: 75% vs 50%)")
	}
}

func TestHostingShape(t *testing.T) {
	w := tiny(t)
	instCountry := map[string]float64{}
	userCountry := map[string]float64{}
	asUsers := map[int]float64{}
	for _, in := range w.Instances {
		instCountry[in.Country]++
		userCountry[in.Country] += float64(in.Users)
		asUsers[in.ASN] += float64(in.Users)
	}
	n := float64(len(w.Instances))
	tu := float64(w.TotalUsers())
	if f := instCountry["Japan"] / n; f < 0.17 || f > 0.37 {
		t.Fatalf("Japan instance share = %.3f, want ≈0.255", f)
	}
	// At tiny scale a couple of hub placements dominate, so only a loose
	// version of "Japan over-attracts users" holds; the strict Fig 5 shape
	// is asserted on the Small world in internal/analysis.
	if userCountry["Japan"]/tu <= instCountry["Japan"]/n*0.6 {
		t.Fatalf("Japan users %.3f vs instances %.3f: should not under-attract",
			userCountry["Japan"]/tu, instCountry["Japan"]/n)
	}
	if len(asUsers) < 15 {
		t.Fatalf("only %d ASes in use", len(asUsers))
	}
	var shares []float64
	for _, v := range asUsers {
		shares = append(shares, v/tu)
	}
	if top3 := stats.TopShare(shares, 3.0/float64(len(shares))) * stats.Sum(shares); top3 < 0.30 {
		t.Fatalf("top-3 AS user share = %.3f, want ≥0.30 (§4.3: 62%%)", top3)
	}
	// All ASNs must resolve in the registry.
	for _, in := range w.Instances {
		if w.ASByNumber(in.ASN) == nil {
			t.Fatalf("instance %d has unknown ASN %d", in.ID, in.ASN)
		}
	}
}

func TestCategoriesShape(t *testing.T) {
	w := tiny(t)
	catInst := map[dataset.Category]float64{}
	catUsers := map[dataset.Category]float64{}
	var categorized, catUserTotal float64
	for _, in := range w.Instances {
		if !in.Categorized {
			continue
		}
		categorized++
		catUserTotal += float64(in.Users)
		for _, c := range in.Categories {
			catInst[c]++
			catUsers[c] += float64(in.Users)
		}
	}
	frac := categorized / float64(len(w.Instances))
	if frac < 0.08 || frac > 0.28 {
		t.Fatalf("categorised fraction = %.3f, want ≈0.161", frac)
	}
	// Tech must be the most common non-generic tag (Fig 3: 55.2%).
	for _, c := range dataset.Categories {
		if c != dataset.CatTech && catInst[c] > catInst[dataset.CatTech] {
			t.Fatalf("%s (%v instances) outnumbers tech (%v)", c, catInst[c], catInst[dataset.CatTech])
		}
	}
	// Adult: few instances, many users (Fig 3: 12.3% instances, 61% users).
	adultInstShare := catInst[dataset.CatAdult] / categorized
	adultUserShare := catUsers[dataset.CatAdult] / catUserTotal
	if adultUserShare <= adultInstShare {
		t.Fatalf("adult user share %.3f should exceed instance share %.3f", adultUserShare, adultInstShare)
	}
}

func TestActivitiesShape(t *testing.T) {
	w := tiny(t)
	prohibit := map[dataset.Activity]int{}
	allowAll := 0
	for _, in := range w.Instances {
		if len(in.Prohibited) == 0 {
			allowAll++
		}
		for _, a := range in.Prohibited {
			prohibit[a]++
		}
	}
	frac := float64(allowAll) / float64(len(w.Instances))
	if frac < 0.08 || frac > 0.30 {
		t.Fatalf("allow-all fraction = %.3f, want ≈0.175", frac)
	}
	// Spam must be the most prohibited activity (Fig 4: 76%).
	for _, a := range dataset.Activities {
		if a != dataset.ActSpam && prohibit[a] > prohibit[dataset.ActSpam] {
			t.Fatalf("%s prohibited more often than spam", a)
		}
	}
}

func TestSocialGraphShape(t *testing.T) {
	w := tiny(t)
	mean := float64(w.Social.NumEdges()) / float64(len(w.Users))
	if mean < 5 || mean > 14 {
		t.Fatalf("mean out-degree = %.2f, want ≈10.8", mean)
	}
	wcc := w.Social.WeaklyConnected(nil)
	if f := wcc.LCCFraction(); f < 0.97 {
		t.Fatalf("social LCC = %.4f, want ≥0.97 (§5.1: 99.95%%)", f)
	}
	// Degree skew: the max out-degree should dwarf the median.
	degs := w.Social.OutDegrees()
	if stats.Median(degs) > 3 {
		t.Fatalf("median out-degree = %.1f, want small (power law)", stats.Median(degs))
	}
	if stats.Quantile(degs, 1) < 100 {
		t.Fatalf("max out-degree = %.0f, want hub-scale", stats.Quantile(degs, 1))
	}
}

func TestSocialGraphFragility(t *testing.T) {
	// The headline Fig 12 result needs the larger world for a stable shape:
	// removing the top 1% of accounts must collapse the LCC.
	w := Generate(SmallConfig(1))
	pts := graph.NewSweeper(w.Social).IterativeDegreeRemoval(0.01, 1, graph.SweepOptions{})
	if pts[0].LCCFrac < 0.97 {
		t.Fatalf("baseline LCC = %.3f", pts[0].LCCFrac)
	}
	if pts[1].LCCFrac > 0.50 {
		t.Fatalf("LCC after top-1%% removal = %.3f, want <0.50 (§5.1: 26.38%%)", pts[1].LCCFrac)
	}
}

func TestFederationGraphShape(t *testing.T) {
	w := tiny(t)
	if w.Federation.NumNodes() != len(w.Instances) {
		t.Fatal("federation graph node count mismatch")
	}
	wcc := w.Federation.WeaklyConnected(nil)
	if f := wcc.LCCFraction(); f < 0.80 || f > 0.995 {
		t.Fatalf("federation LCC = %.3f, want ≈0.92 (§5.1)", f)
	}
	// Isolated instances exist (the non-federating tail).
	isolated := 0
	for v := 0; v < w.Federation.NumNodes(); v++ {
		if w.Federation.Degree(int32(v)) == 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("expected some isolated instances")
	}
}

func TestAvailabilityShape(t *testing.T) {
	w := tiny(t)
	spd := dataset.SlotsPerDay
	var downs []float64
	withOutage, over50 := 0, 0
	for i, in := range w.Instances {
		end := w.Days
		if in.GoneDay >= 0 {
			end = in.GoneDay
		}
		d := w.Traces.Traces[i].DownFraction(in.CreatedDay*spd, end*spd)
		downs = append(downs, d)
		if len(w.Traces.Traces[i].Outages(in.CreatedDay*spd, end*spd)) > 0 {
			withOutage++
		}
		if d > 0.5 {
			over50++
		}
	}
	if m := stats.Median(downs); m > 0.12 {
		t.Fatalf("median downtime = %.3f, want <0.12 (§4.4: ≈half under 5%%)", m)
	}
	if m := stats.Mean(downs); m < 0.04 || m > 0.25 {
		t.Fatalf("mean downtime = %.3f, want ≈0.11", m)
	}
	if f := float64(withOutage) / float64(len(downs)); f < 0.9 {
		t.Fatalf("instances with ≥1 outage = %.3f, want ≈0.98", f)
	}
	if f := float64(over50) / float64(len(downs)); f < 0.03 || f > 0.2 {
		t.Fatalf("instances >50%% downtime = %.3f, want ≈0.11", f)
	}
	// Pre-creation slots are down (the prober sees nothing there).
	for i, in := range w.Instances {
		if in.CreatedDay > 0 && !w.Traces.Traces[i].IsDown(0) {
			t.Fatalf("instance %d up before creation", i)
		}
	}
}

func TestChurnShape(t *testing.T) {
	w := tiny(t)
	gone := 0
	for _, in := range w.Instances {
		if in.GoneDay >= 0 {
			gone++
			if in.GoneDay <= in.CreatedDay {
				t.Fatalf("instance %d gone before created", in.ID)
			}
		}
	}
	f := float64(gone) / float64(len(w.Instances))
	if f < 0.08 || f > 0.35 {
		t.Fatalf("churn = %.3f, want ≈0.213", f)
	}
}

func TestCertOutages(t *testing.T) {
	w := tiny(t)
	cfg := TinyConfig(1)
	if len(w.CertOutageDays) == 0 {
		t.Fatal("no cert outages generated")
	}
	perDay := map[int]int{}
	for id, days := range w.CertOutageDays {
		in := w.Instances[id]
		if in.CA != "Let's Encrypt" {
			t.Fatalf("cert outage on non-LE instance %d (%s)", id, in.CA)
		}
		for _, d := range days {
			if d < 0 || d >= w.Days {
				t.Fatalf("cert outage day %d out of range", d)
			}
			if (d-in.CertIssuedDay)%cfg.CertRenewDays != 0 {
				t.Fatalf("cert outage day %d not on a renewal boundary (issued %d)", d, in.CertIssuedDay)
			}
			perDay[d]++
		}
	}
	// The mass-expiry batch is the worst day (Fig 9b's 105-instance spike).
	maxDay, maxN := -1, 0
	for d, n := range perDay {
		if n > maxN {
			maxDay, maxN = d, n
		}
	}
	if maxDay != cfg.MassExpiryDay {
		t.Fatalf("worst cert day = %d (%d instances), want mass-expiry day %d", maxDay, maxN, cfg.MassExpiryDay)
	}
}

func TestASOutagesInjected(t *testing.T) {
	w := tiny(t)
	spd := dataset.SlotsPerDay
	// At least one planned AS must show a simultaneous full-AS failure.
	found := 0
	for _, plan := range TinyConfig(1).ASOutages {
		var asn int
		for _, a := range w.ASes {
			if a.Name == plan.Name {
				asn = a.ASN
			}
		}
		var ids []int32
		lo, hi := 0, w.Days*spd
		for i := range w.Instances {
			if w.Instances[i].ASN != asn {
				continue
			}
			ids = append(ids, int32(i))
			if s := w.Instances[i].CreatedDay * spd; s > lo {
				lo = s
			}
			if g := w.Instances[i].GoneDay; g >= 0 && g*spd < hi {
				hi = g * spd
			}
		}
		if len(ids) < 2 || hi <= lo {
			continue
		}
		if len(w.Traces.SimultaneousDown(ids).Outages(lo, hi)) > 0 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no AS-wide outages detected for any planned AS")
	}
}

func TestCertExpiryDaysHelper(t *testing.T) {
	in := dataset.Instance{CertIssuedDay: 10}
	days := in.CertExpiryDays(200, 90)
	if len(days) != 2 || days[0] != 100 || days[1] != 190 {
		t.Fatalf("expiry days = %v", days)
	}
	if in.CertExpiryDays(50, 90) != nil {
		t.Fatal("no expiries expected within 50 days")
	}
}

func TestPrivateUsers(t *testing.T) {
	w := tiny(t)
	private := 0
	for _, u := range w.Users {
		if u.Private {
			private++
		}
	}
	f := float64(private) / float64(len(w.Users))
	if f < 0.12 || f > 0.28 {
		t.Fatalf("private user fraction = %.3f, want ≈0.20", f)
	}
}

func TestBlocksCrawl(t *testing.T) {
	w := tiny(t)
	blocks := 0
	for _, in := range w.Instances {
		if in.BlocksCrawl {
			blocks++
		}
	}
	f := float64(blocks) / float64(len(w.Instances))
	if f < 0.03 || f > 0.2 {
		t.Fatalf("crawl-blocking fraction = %.3f, want ≈0.10", f)
	}
}

func TestGrowthPhases(t *testing.T) {
	w := tiny(t)
	cfg := TinyConfig(1)
	p1 := int(float64(cfg.Days) * 0.17)
	early := 0
	for _, in := range w.Instances {
		if in.CreatedDay < 0 || in.CreatedDay >= cfg.Days {
			t.Fatalf("CreatedDay %d out of range", in.CreatedDay)
		}
		if in.CreatedDay < p1 {
			early++
		}
	}
	f := float64(early) / float64(len(w.Instances))
	if f < 0.5 || f > 0.8 {
		t.Fatalf("early-phase creation share = %.3f, want ≈0.64", f)
	}
}

func TestBlocklists(t *testing.T) {
	w := tiny(t)
	blockers, pairs := 0, 0
	for i := range w.Instances {
		in := &w.Instances[i]
		if len(in.Blocks) > 0 {
			blockers++
		}
		pairs += len(in.Blocks)
		if len(in.Blocks) > TinyConfig(1).BlockMaxTargets {
			t.Fatalf("instance %d exceeds block cap", i)
		}
		for _, b := range in.Blocks {
			if b == in.ID {
				t.Fatalf("instance %d blocks itself", i)
			}
			if int(b) >= len(w.Instances) || b < 0 {
				t.Fatalf("instance %d blocks out-of-range %d", i, b)
			}
			// Targets must actually be policy offenders.
			target := &w.Instances[b]
			offender := false
			for _, a := range target.Allowed {
				if a == dataset.ActSpam || a == dataset.ActPornNoNSFW {
					offender = true
				}
			}
			if !offender {
				t.Fatalf("instance %d blocks non-offender %d", i, b)
			}
		}
	}
	if blockers == 0 || pairs == 0 {
		t.Fatal("no blocklists generated")
	}
	// Only strict instances block.
	for i := range w.Instances {
		in := &w.Instances[i]
		if len(in.Blocks) == 0 {
			continue
		}
		strict := false
		for _, a := range in.Prohibited {
			if a == dataset.ActSpam || a == dataset.ActPornNoNSFW {
				strict = true
			}
		}
		if !strict {
			t.Fatalf("lenient instance %d has a blocklist", i)
		}
	}
}
