// Livecrawl reproduces the paper's §3 data collection end to end inside one
// process: it generates a world, boots it as a live HTTP fediverse (every
// instance a real server, federating over the subscription protocol), then
// re-collects the three datasets with the crawler toolkit — instance
// metadata via the monitor, toots via the paged timeline crawler, and the
// follower graph via the HTML scraper — and compares against ground truth.
//
//	go run ./examples/livecrawl
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"slices"
	"time"

	"repro/internal/crawler"
	"repro/internal/gen"
	"repro/internal/instance"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// 1. Ground truth: a small synthetic world.
	cfg := gen.TinyConfig(42)
	cfg.Instances = 80
	cfg.Users = 1200
	world := gen.Generate(cfg)
	fmt.Printf("ground truth: %d instances, %d users, %d toots\n",
		len(world.Instances), len(world.Users), world.TotalToots())

	// 2. Boot it as a live fediverse on one listener (Host-multiplexed).
	net, err := instance.LoadWorld(ctx, world, instance.LoadOptions{
		MaxTootsPerUser: 5,
		OfflineGone:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(net)
	defer srv.Close()
	fmt.Printf("live fediverse at %s (%d domains)\n", srv.URL, len(net.Domains()))

	cli := &crawler.Client{
		Resolve:   func(string) string { return srv.URL },
		Limiter:   crawler.NewHostLimiter(200, 50),
		UserAgent: "livecrawl-example/1.0",
	}

	// 3. Snowball discovery from the biggest instance, like building the
	// mnm.social index.
	seed := world.Instances[0].Domain
	for i := range world.Instances {
		if world.Instances[i].GoneDay < 0 && world.Instances[i].Users > world.Instances[0].Users {
			seed = world.Instances[i].Domain
		}
	}
	disc := &crawler.Discoverer{Client: cli, Workers: 8}
	domains := disc.Discover(ctx, []string{seed})
	fmt.Printf("discovery: %d domains found from seed %s\n", len(domains), seed)

	// 4. Monitor round (the 5-minute prober).
	mon := &crawler.Monitor{Client: cli, Domains: domains, Workers: 16}
	online := 0
	for _, s := range mon.PollOnce(ctx) {
		if s.Online {
			online++
		}
	}
	fmt.Printf("monitor: %d/%d online\n", online, len(domains))

	// 5. Toot crawl with the paper's 10 workers.
	tc := &crawler.TootCrawler{Client: cli, Workers: 10, Local: true}
	start := time.Now()
	results := tc.Crawl(ctx, domains)
	sum := crawler.Summarize(results)
	fmt.Printf("toot crawl in %v: %d toots from %d authors (%d online, %d blocked, %d offline)\n",
		time.Since(start).Round(time.Millisecond), sum.Toots, sum.Authors,
		sum.Online, sum.Blocked, sum.Offline)

	// 6. Follower scrape of every author → rebuilt social graph.
	fs := &crawler.FollowerScraper{Client: cli, Workers: 10}
	res := fs.Scrape(ctx, crawler.Authors(results))
	_, names := crawler.AccountIndex(res.Edges)
	fmt.Printf("follower scrape: %d edges across %d accounts (%d errors)\n",
		len(res.Edges), len(names), len(res.Errors))

	// 7. Compare with ground truth: every scraped edge must exist in the
	// generated social graph (account names encode the world user ids).
	verified, missing := 0, 0
	for _, e := range res.Edges {
		fromUser, fromDomain, _ := crawler.SplitAcct(e.From)
		toUser, toDomain, _ := crawler.SplitAcct(e.To)
		var fu, tu int32
		if _, err := fmt.Sscanf(fromUser, "u%d", &fu); err != nil {
			missing++
			continue
		}
		if _, err := fmt.Sscanf(toUser, "u%d", &tu); err != nil {
			missing++
			continue
		}
		ok := int(fu) < len(world.Users) && int(tu) < len(world.Users) &&
			world.Instances[world.Users[fu].Instance].Domain == fromDomain &&
			world.Instances[world.Users[tu].Instance].Domain == toDomain &&
			slices.Contains(world.Social.Out(fu), tu)
		if ok {
			verified++
		} else {
			missing++
		}
	}
	fmt.Printf("verification: %d/%d scraped edges match ground truth (%d mismatches)\n",
		verified, len(res.Edges), missing)
}
