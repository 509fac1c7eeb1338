package main

import (
	"fmt"

	"repro/internal/gen"
)

// sizes are the constants of the benchmark: they are not flags, so two
// runs of one workload always do the same kind of work.
type sizes struct {
	instances, users int // the generated world, on every workload
	planOps          int // serve-*: length of the plan the workers cycle
	serveToots       int // serve-*: toots loaded per user
	campaignToots    int // campaign: toots loaded per user
	campaignDays     int // campaign: days of availability traces generated
	campaignSlots    int // campaign: probe rounds per repetition
}

// The full sizes are set by the time the contract allows: set-up runs
// three times in every run, and 92 runs must fit in 57 minutes.
func sizesOf(o options) sizes {
	s := sizes{
		instances: 500, users: 20000,
		planOps:    1 << 18,
		serveToots: 10,
		// 36 probe rounds over 10 toots a user keep probes, crawl, scrape
		// and rebuild each a share of a repetition that can move the total.
		campaignToots: 10, campaignDays: 8, campaignSlots: 36,
	}
	if o.tiny {
		s.instances, s.users = 200, 4000 // gen.TinyConfig
		s.planOps = 1 << 12
		s.campaignSlots = 12
	}
	return s
}

func (s sizes) String() string {
	return fmt.Sprintf("world %d instances %d users; plan %d ops, %d toots/user; campaign %d toots/user, %d slots of %d days",
		s.instances, s.users, s.planOps, s.serveToots, s.campaignToots, s.campaignSlots, s.campaignDays)
}

// worldSeed generates the one world serve-* and campaign run against. The
// generator's instance sizes are heavy-tailed, so whether the two or three
// largest instances block crawling, or are down when a campaign ends, moves
// a workload's whole mix: over seeds 1–10 a campaign made 2.3K to 5.9K
// follower requests and allocated 3.4 to 4.5 KB an operation. Worlds from
// different seeds are different workloads, not samples of one. So the world
// is part of the benchmark, like its sizes, and --seed draws what varies
// over it: the request plan on serve-*, the probe window on campaign. On
// paper-pipeline the generator is the program under test and takes --seed.
const worldSeed = 1

// worldConfig is the generator input for a world of the benchmark's size.
func worldConfig(o options, seed uint64) gen.Config {
	s := sizesOf(o)
	cfg := gen.SmallConfig(seed)
	if o.tiny {
		cfg = gen.TinyConfig(seed)
	}
	cfg.Instances, cfg.Users = s.instances, s.users
	return cfg
}

type metricDef struct{ name, unit string }

// layerMetrics lists every per-layer metric, in BENCHMARK.json's order. A
// name is "<module>.<what>"; README.md says which end-to-end metric each
// should move, and on which workload.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		// serve-hot, serve-churn
		{"client.p50_us", "us"},
		{"client.p99_us", "us"},
		{"client.p999_us", "us"},
		{"instance.serve_us", "us"},
		{"instance.serve_304_us", "us"},
		{"instance.serve_200_us", "us"},
		{"instance.inbox_us", "us"},
		{"instance.busy_share", "ratio"},
		{"nethttp.self_us", "us"},
		{"instance.status_200", "count"},
		{"instance.status_304", "count"},
		{"instance.status_403", "count"},
		{"instance.status_202", "count"},
		{"instance.bytes_per_op", "B"},
		{"instance.stale_tag_share", "ratio"},
		{"instance.loadworld_s", "s"},
		{"client.warmup_s", "s"},
		// serve-hot: the open-loop rungs
		{"loadgen.ol5k_p99_ms", "ms"},
		{"loadgen.ol10k_p99_ms", "ms"},
		{"loadgen.ol20k_p99_ms", "ms"},
		{"loadgen.ol20k_achieved_share", "ratio"},
		// campaign
		{"simnet.new_s", "s"},
		{"simnet.probe_s", "s"},
		{"simnet.crawl_s", "s"},
		{"simnet.scrape_s", "s"},
		{"simnet.rebuild_s", "s"},
		{"crawler.probe_requests", "count"},
		{"crawler.timeline_requests", "count"},
		{"crawler.follower_requests", "count"},
		{"crawler.non2xx_share", "ratio"},
		{"crawler.self_share", "ratio"},
		{"instance.mem_probe_us", "us"},
		{"instance.mem_timeline_us", "us"},
		{"instance.mem_followers_us", "us"},
		// shared by several workloads
		{"gen.generate_s", "s"},
		{"dataset.save_s", "s"},
		// paper-pipeline
		{"dataset.load_s", "s"},
		{"dataset.file_mb", "MB"},
		{"core.runall_s", "s"},
		{"core.runall_parallel_gain", "ratio"},
	}
	for _, id := range experimentIDs {
		m = append(m, metricDef{expMetric(id), "s"})
	}
	return append(m,
		metricDef{"proc.ops_per_s", "1/s"},
		metricDef{"proc.cpu_us_per_op", "us"},
		metricDef{"proc.mallocs_per_op", "count"},
		metricDef{"proc.gc_cycles", "count"},
		metricDef{"proc.gc_pause_ms", "ms"},
		metricDef{"proc.peak_rss_mb", "MB"},
		metricDef{"trace.overhead_share", "ratio"},
	)
}()

// experimentIDs fixes which of core.Experiments() have a metric: the list
// BENCHMARK.json was written with. An experiment added later is still run
// and timed into core.runall_parallel_gain, but has no line of its own
// (bench_test.go notices the difference).
var experimentIDs = []string{
	"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9a", "fig9b", "tab1", "fig10", "fig11", "tab2", "fig12", "fig13a", "fig13b",
	"fig14", "fig15", "fig16", "ext-blocking", "ext-capacity", "ext-dht",
}

func expMetric(id string) string { return "core.exp." + id + "_s" }
