package crawler

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/instance"
)

// The end-to-end pipeline of §3, in miniature: generate a world, serve it
// as a live HTTP fediverse, and re-collect the three datasets (instances,
// toots, graphs) with the crawler toolkit. Ground truth is the generated
// world itself.

type liveWorld struct {
	w   *dataset.World
	net *instance.Network
	srv *httptest.Server
	cli *Client
}

var (
	liveOnce sync.Once
	live     *liveWorld
)

func liveFediverse(t *testing.T) *liveWorld {
	t.Helper()
	liveOnce.Do(func() {
		cfg := gen.TinyConfig(5)
		cfg.Instances = 60
		cfg.Users = 900
		cfg.Days = 40
		w := gen.Generate(cfg)
		net, err := instance.LoadWorld(context.Background(), w, instance.LoadOptions{
			MaxTootsPerUser: 5,
			OfflineGone:     true,
		})
		if err != nil {
			panic(err)
		}
		srv := httptest.NewServer(net)
		cli := &Client{
			Resolve: func(string) string { return srv.URL },
			Retries: 2,
		}
		live = &liveWorld{w: w, net: net, srv: srv, cli: cli}
	})
	return live
}

func TestMonitorAgainstLiveWorld(t *testing.T) {
	lw := liveFediverse(t)
	m := &Monitor{Client: lw.cli, Domains: domainsOf(lw.w), Workers: 16}
	samples := m.PollOnce(context.Background())
	if len(samples) != len(lw.w.Instances) {
		t.Fatalf("samples = %d", len(samples))
	}
	online, offline := 0, 0
	for i, s := range samples {
		in := &lw.w.Instances[i]
		if s.Domain != in.Domain {
			t.Fatalf("sample %d domain %s != %s", i, s.Domain, in.Domain)
		}
		if in.GoneDay >= 0 {
			if s.Online {
				t.Fatalf("churned instance %s reported online", in.Domain)
			}
			offline++
			continue
		}
		online++
		if !s.Online {
			t.Fatalf("live instance %s reported offline", in.Domain)
		}
		if s.Users != in.Users {
			t.Fatalf("%s user count %d != ground truth %d", in.Domain, s.Users, in.Users)
		}
		if s.Open != in.Open {
			t.Fatalf("%s open flag mismatch", in.Domain)
		}
	}
	if online == 0 || offline == 0 {
		t.Fatalf("want a mix of online (%d) and offline (%d)", online, offline)
	}
	// The probe log aggregates downtime.
	log := NewProbeLog()
	log.Add(samples)
	log.Add(samples)
	if len(log.Domains()) != len(lw.w.Instances) {
		t.Fatal("probe log domain count wrong")
	}
	someGone := ""
	for i := range lw.w.Instances {
		if lw.w.Instances[i].GoneDay >= 0 {
			someGone = lw.w.Instances[i].Domain
			break
		}
	}
	if someGone != "" && log.DowntimeFraction(someGone) != 1 {
		t.Fatalf("downtime of gone instance = %g", log.DowntimeFraction(someGone))
	}
	if got := len(log.Samples(someGone)); got != 2 {
		t.Fatalf("samples stored = %d", got)
	}
}

func TestTootCrawlAgainstLiveWorld(t *testing.T) {
	lw := liveFediverse(t)
	tc := &TootCrawler{Client: lw.cli, Workers: 10, Local: true}
	results, _, err := tc.Crawl(context.Background(), domainsOf(lw.w))
	if err != nil {
		t.Fatal(err)
	}

	byDomain := make(map[string]*InstanceCrawl)
	for i := range results {
		byDomain[results[i].Domain] = &results[i]
	}
	for i := range lw.w.Instances {
		in := &lw.w.Instances[i]
		r := byDomain[in.Domain]
		switch {
		case in.GoneDay >= 0:
			if !r.Offline {
				t.Fatalf("%s should be offline", in.Domain)
			}
		case in.BlocksCrawl:
			if !r.Blocked {
				t.Fatalf("%s should block crawling", in.Domain)
			}
		default:
			// Harvest must equal the ground truth: capped public toots of
			// non-private users.
			want := 0
			for _, u := range lw.w.Users {
				if u.Instance == in.ID && !u.Private && u.Toots > 0 {
					c := u.Toots
					if c > 5 {
						c = 5
					}
					want += c
				}
			}
			if len(r.Toots) != want {
				t.Fatalf("%s harvested %d toots, ground truth %d", in.Domain, len(r.Toots), want)
			}
			// Paging: newest first, strictly descending ids.
			for k := 1; k < len(r.Toots); k++ {
				if r.Toots[k].ID >= r.Toots[k-1].ID {
					t.Fatalf("%s toots not strictly descending", in.Domain)
				}
			}
		}
	}
	sum := Summarize(results)
	if sum.Online == 0 || sum.Blocked == 0 || sum.Offline == 0 {
		t.Fatalf("summary should show all three classes: %+v", sum)
	}
	if sum.Toots == 0 || sum.Authors == 0 {
		t.Fatalf("no toots harvested: %+v", sum)
	}
	// Coverage must be partial (private users + blocked + offline), like the
	// paper's 62%.
	var totalLoaded int
	for _, u := range lw.w.Users {
		c := u.Toots
		if c > 5 {
			c = 5
		}
		totalLoaded += c
	}
	cov := float64(sum.Toots) / float64(totalLoaded)
	if cov <= 0.3 || cov >= 0.95 {
		t.Fatalf("coverage = %.2f, want partial (paper: 0.62)", cov)
	}
}

func TestFollowerScrapeAgainstLiveWorld(t *testing.T) {
	lw := liveFediverse(t)
	// Scrape the followers of every user on one live, non-blocking instance
	// and compare with the social graph ground truth.
	var target *dataset.Instance
	for i := range lw.w.Instances {
		in := &lw.w.Instances[i]
		if in.GoneDay < 0 && !in.BlocksCrawl && in.Users >= 5 {
			target = in
			break
		}
	}
	if target == nil {
		t.Skip("no suitable instance")
	}
	var accts []string
	wantFollowers := make(map[string]int)
	for _, u := range lw.w.Users {
		if u.Instance != target.ID {
			continue
		}
		acct := instance.UserName(u.ID) + "@" + target.Domain
		accts = append(accts, acct)
		wantFollowers[acct] = len(lw.w.Social.In(u.ID))
	}
	fs := &FollowerScraper{Client: lw.cli, Workers: 8}
	res := fs.Scrape(context.Background(), accts)
	if len(res.Errors) != 0 {
		t.Fatalf("scrape errors: %v", res.Errors)
	}
	got := make(map[string]int)
	for _, e := range res.Edges {
		got[e.To]++
	}
	for acct, want := range wantFollowers {
		if got[acct] != want {
			t.Fatalf("%s has %d scraped followers, ground truth %d", acct, got[acct], want)
		}
	}
}

func TestDiscoverAgainstLiveWorld(t *testing.T) {
	lw := liveFediverse(t)
	// Seed with the biggest live instance; snowball discovery should find a
	// large share of the live, federated population.
	var seed string
	best := -1
	for i := range lw.w.Instances {
		in := &lw.w.Instances[i]
		if in.GoneDay < 0 && in.Users > best {
			best = in.Users
			seed = in.Domain
		}
	}
	d := &Discoverer{Client: lw.cli, Workers: 8}
	found := d.Discover(context.Background(), []string{seed})
	if len(found) < len(lw.w.Instances)/3 {
		t.Fatalf("discovered only %d of %d instances", len(found), len(lw.w.Instances))
	}
	// Determinism.
	found2 := d.Discover(context.Background(), []string{seed})
	if len(found) != len(found2) {
		t.Fatalf("discovery not deterministic: %d vs %d", len(found), len(found2))
	}
}

func TestCrawlRespectsRateLimit(t *testing.T) {
	lw := liveFediverse(t)
	// A very slow limiter with a tiny burst must keep page counts low
	// within a cancelled deadline, without errors leaking as panics.
	ctx, cancel := context.WithTimeout(context.Background(), 50e6) // 50ms
	defer cancel()
	limited := &Client{
		Resolve: lw.cli.Resolve,
		Limiter: NewHostLimiter(5, 1),
		Retries: 1,
	}
	tc := &TootCrawler{Client: limited, Workers: 2, Local: true, MaxToots: 1000}
	var domains []string
	for i := range lw.w.Instances {
		if lw.w.Instances[i].GoneDay < 0 && !lw.w.Instances[i].BlocksCrawl {
			domains = append(domains, lw.w.Instances[i].Domain)
		}
		if len(domains) == 4 {
			break
		}
	}
	results, _, _ := tc.Crawl(ctx, domains)
	if len(results) != len(domains) {
		t.Fatalf("results = %d", len(results))
	}
}

func domainsOf(w *dataset.World) []string {
	out := make([]string, len(w.Instances))
	for i := range w.Instances {
		out[i] = w.Instances[i].Domain
	}
	return out
}
