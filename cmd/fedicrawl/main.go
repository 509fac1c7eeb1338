// Command fedicrawl re-collects the paper's three datasets from a live
// fediverse (one served by fediserve): instance metadata via the monitor,
// toots via the timeline crawler, and the follower graph via the HTML
// scraper, printing §3-style coverage statistics.
//
// Usage:
//
//	fedicrawl -base http://localhost:8080 -seeds instance-0001.fedi.test
//	fedicrawl -base http://localhost:8080 -world world.fedi   # full domain list
//
// Incremental recrawls persist per-domain toot high-water marks between
// runs: the first crawl writes them with -write-since, the next one resumes
// from them with -since and fetches only content that appeared in between.
//
//	fedicrawl -base ... -world world.fedi -write-since marks.json
//	fedicrawl -base ... -world world.fedi -since marks.json -write-since marks.json
//
// Concurrency: -workers sizes every phase (the paper used 10 threads). The
// toot crawl hands domains to that many workers in order, one lease per
// domain; its harvest, coverage numbers and -since marks do not depend on
// the width.
//
// Robustness: every request runs behind a per-host circuit breaker with a
// quarantine budget, so persistently hostile instances fail fast instead of
// burning the crawl's deadline. -breaker-stats prints the per-host breaker
// table (failures, circuit opens, quarantines) after the crawl.
//
// Exit status: 0 when every phase ran to its end, 1 when the -timeout
// deadline cut the crawl short (the numbers printed are then partial, and a
// toot crawl that was cut writes no marks file), 2 for a bad invocation or
// an I/O failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/crawler"
	"repro/internal/dataset"
)

func main() { os.Exit(run()) }

func run() int {
	base := flag.String("base", "http://localhost:8080", "base URL all domains resolve to")
	seeds := flag.String("seeds", "", "comma-separated seed domains for snowball discovery")
	worldFile := flag.String("world", "", "take the domain list from a world file instead of discovering")
	workers := flag.Int("workers", 10, "concurrent crawl workers (the paper used 10 threads)")
	rate := flag.Float64("rate", 50, "per-host request rate limit (req/s)")
	maxToots := flag.Int("max-toots", 0, "per-instance toot cap (0 = full history)")
	scrapeFollowers := flag.Bool("followers", true, "also scrape follower lists of toot authors")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall crawl deadline")
	sinceFile := flag.String("since", "", "JSON high-water-mark file from a previous -write-since run; crawl only newer toots")
	writeSince := flag.String("write-since", "", "write the crawl's per-domain high-water marks to this JSON file")
	breakerStats := flag.Bool("breaker-stats", false, "print the per-host circuit-breaker table after the crawl")
	flag.Parse()

	since := map[string]int64{}
	if *sinceFile != "" {
		b, err := os.ReadFile(*sinceFile)
		if err == nil {
			since, err = crawler.DecodeMarks(b)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedicrawl:", err)
			return 2
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// cutShort reports that the deadline expired during phase; instances the
	// crawl never reached are counted offline in whatever was printed, and a
	// toot crawl that was cut writes no marks file.
	cutShort := func(phase string) int {
		fmt.Fprintf(os.Stderr, "fedicrawl: the -timeout %v deadline cut the %s short: the numbers above are partial\n", *timeout, phase)
		return 1
	}

	cli := &crawler.Client{
		Resolve:   func(string) string { return *base },
		Limiter:   crawler.NewHostLimiter(*rate, *rate),
		UserAgent: "fedicrawl/1.0 (measurement; IMC19 reproduction)",
		Breaker:   crawler.NewHostBreaker(crawler.BreakerConfig{}, nil),
	}
	defer func() {
		if !*breakerStats {
			return
		}
		rows := cli.Breaker.Snapshot()
		st := cli.Breaker.Stats()
		fmt.Printf("breaker: %d hosts with failures, %d failures, %d opens, %d quarantined\n",
			st.Hosts, st.Failures, st.Opens, st.Quarantined)
		for _, r := range rows {
			state := "closed"
			switch {
			case r.Quarantined:
				state = "quarantined"
			case r.Open:
				state = "open"
			}
			fmt.Printf("breaker: %-40s %s (%d failures, %d opens)\n", r.Host, state, r.Failures, r.Opens)
		}
	}()

	// 1. Domain list: from a world file or by snowball discovery.
	var domains []string
	switch {
	case *worldFile != "":
		w, err := dataset.LoadFile(*worldFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedicrawl:", err)
			return 2
		}
		for i := range w.Instances {
			domains = append(domains, w.Instances[i].Domain)
		}
	case *seeds != "":
		d := &crawler.Discoverer{Client: cli, Workers: *workers}
		domains = d.Discover(ctx, strings.Split(*seeds, ","))
	default:
		fmt.Fprintln(os.Stderr, "fedicrawl: need -seeds or -world")
		return 2
	}
	fmt.Printf("domain list: %d instances\n", len(domains))
	if ctx.Err() != nil {
		return cutShort("discovery")
	}

	// 2. Instance metadata (one monitor round).
	mon := &crawler.Monitor{Client: cli, Domains: domains, Workers: *workers}
	samples := mon.PollOnce(ctx)
	online := 0
	var totalToots int64
	for _, s := range samples {
		if s.Online {
			online++
			totalToots += s.Toots
		}
	}
	fmt.Printf("monitor: %d/%d online, %d toots reported\n", online, len(domains), totalToots)
	if ctx.Err() != nil {
		return cutShort("monitor round")
	}

	// 3. Toots (incremental when -since marks exist). With no kill script
	// the crawl fails only when the deadline cuts it.
	tc := &crawler.TootCrawler{Client: cli, Workers: *workers, Local: true, MaxToots: *maxToots, Since: since}
	start := time.Now()
	results, _, err := tc.Crawl(ctx, domains)
	sum := crawler.Summarize(results)
	mode := "full"
	if len(since) > 0 {
		mode = fmt.Sprintf("delta over %d marks", len(since))
	}
	fmt.Printf("toot crawl (%v, %s): %d toots from %d authors; %d online, %d blocked, %d offline\n",
		time.Since(start).Round(time.Millisecond), mode, sum.Toots, sum.Authors, sum.Online, sum.Blocked, sum.Offline)
	if totalToots > 0 && len(since) == 0 {
		fmt.Printf("coverage: %.1f%% of reported toots (paper: 62%%)\n",
			100*float64(sum.Toots)/float64(totalToots))
	}
	if err != nil {
		return cutShort("toot crawl")
	}
	if *writeSince != "" {
		// crawler.Marks leaves out any domain whose harvest was incomplete
		// (blocked, offline, failed partway): a mark past unfetched history
		// would silently drop toots, so those domains refetch in full.
		marks := crawler.Marks(results)
		b, err := crawler.EncodeMarks(marks)
		if err == nil {
			err = os.WriteFile(*writeSince, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedicrawl:", err)
			return 2
		}
		fmt.Printf("high-water marks: %d domains -> %s\n", len(marks), *writeSince)
	}

	// 4. Follower graph.
	if !*scrapeFollowers {
		return 0
	}
	authors := crawler.Authors(results)
	fs := &crawler.FollowerScraper{Client: cli, Workers: *workers}
	start = time.Now()
	res := fs.Scrape(ctx, authors)
	_, names := crawler.AccountIndex(res.Edges)
	fmt.Printf("follower scrape (%v): %d edges over %d accounts (%d scrape errors)\n",
		time.Since(start).Round(time.Millisecond), len(res.Edges), len(names), len(res.Errors))
	if ctx.Err() != nil {
		return cutShort("follower scrape")
	}
	return 0
}
