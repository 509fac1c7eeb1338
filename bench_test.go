// Package repro's benchmark harness regenerates every table and figure of
// the paper (one benchmark per experiment id; see DESIGN.md), plus the
// ablation benches for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/crawler/fleet"
	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/loadgen"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/twitter"
	"repro/internal/wire"
)

var (
	worldOnce sync.Once
	world     *dataset.World
	twGraph   *graph.CSR
	twDaily   []float64
)

// benchWorld lazily builds the calibrated Small world shared by all
// experiment benchmarks.
func benchWorld(b *testing.B) *dataset.World {
	b.Helper()
	worldOnce.Do(func() {
		world = gen.Generate(gen.SmallConfig(1))
		twGraph = twitter.Graph(twitter.DefaultGraphConfig(1, 20000))
		twDaily = twitter.DailyDowntime(
			twitter.Uptime(twitter.DefaultUptimeConfig(1, world.Days)), dataset.SlotsPerDay)
	})
	return world
}

func BenchmarkGenerateTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen.Generate(gen.TinyConfig(uint64(i + 1)))
	}
}

func BenchmarkFig01Growth(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig1Growth(w)
	}
}

func BenchmarkFig02aOpenClosedCDF(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig2aOpenClosedCDF(w)
	}
}

func BenchmarkFig02bOpenClosedShares(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig2bOpenClosedShares(w)
	}
}

func BenchmarkFig02cActiveUsers(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig2cActiveUsers(w)
	}
}

func BenchmarkFig03Categories(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig3Categories(w)
	}
}

func BenchmarkFig04Activities(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig4Activities(w)
	}
}

func BenchmarkFig05Hosting(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig5Hosting(w, 5)
	}
}

func BenchmarkFig06CountryFlows(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig6CountryFlows(w, 5)
	}
}

func BenchmarkFig07DowntimeCDF(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig7Downtime(w)
	}
}

func BenchmarkFig08DailyDowntime(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig8DailyDowntime(w, twDaily)
	}
}

func BenchmarkFig09aCAFootprint(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig9aCAFootprint(w)
	}
}

func BenchmarkFig09bCertOutages(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig9bCertOutages(w, 90)
	}
}

func BenchmarkTab01ASFailures(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Table1ASFailures(w, 8)
	}
}

func BenchmarkFig10OutageDurations(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig10OutageDurations(w)
	}
}

func BenchmarkFig11DegreeCDF(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig11DegreeCDF(w, twGraph)
	}
}

func BenchmarkTab02TopInstances(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Table2TopInstances(w, 10)
	}
}

func BenchmarkFig12UserRemoval(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig12UserRemoval(w, twGraph, 5)
	}
}

func BenchmarkFig13aInstanceRemoval(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig13aInstanceRemoval(w, 100)
	}
}

func BenchmarkFig13bASRemoval(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig13bASRemoval(w, 20)
	}
}

func BenchmarkFig14HomeRemote(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig14HomeRemote(w)
	}
}

func BenchmarkFig15Replication(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig15Replication(w, 50, 10)
	}
}

func BenchmarkFig16RandomReplication(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig16RandomReplication(w, 25, 10, []int{1, 2, 3, 4, 7, 9})
	}
}

// BenchmarkRunAll regenerates the entire evaluation section in one go.
func BenchmarkRunAll(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.RunAll(w, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3 data collection: crawl a live fediverse ---

var (
	crawlOnce sync.Once
	crawlNet  *instance.Network
	crawlSrv  *httptest.Server
	crawlDoms []string
)

func crawlTarget(b *testing.B) (*instance.Network, []string) {
	b.Helper()
	crawlOnce.Do(func() {
		cfg := gen.TinyConfig(2)
		cfg.Instances = 50
		cfg.Users = 600
		cfg.Days = 30
		w := gen.Generate(cfg)
		net, err := instance.LoadWorld(context.Background(), w, instance.LoadOptions{MaxTootsPerUser: 3})
		if err != nil {
			panic(err)
		}
		crawlNet = net
		crawlSrv = httptest.NewServer(net)
		for i := range w.Instances {
			crawlDoms = append(crawlDoms, w.Instances[i].Domain)
		}
	})
	return crawlNet, crawlDoms
}

// benchCrawl measures the §3 toot crawl in the campaign configuration:
// the socketless memory transport of internal/simnet, where throughput is
// bounded by the wire codecs and the server's page cache rather than TCP
// (see the CrawlSocket ablation for the kernel-bound baseline).
func benchCrawl(b *testing.B, workers int) {
	net, domains := crawlTarget(b)
	cli := &crawler.Client{HTTP: &http.Client{Transport: &simnet.MemoryTransport{Handler: net}}}
	tc := &crawler.TootCrawler{Client: cli, Workers: workers, Local: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := tc.Crawl(context.Background(), domains)
		if crawler.Summarize(results).Toots == 0 {
			b.Fatal("empty crawl")
		}
	}
}

func BenchmarkCrawlWorld(b *testing.B) { benchCrawl(b, 10) }

// BenchmarkAblationCrawlSocket is the same crawl over real TCP sockets —
// the transport ablation (the kernel round-trips the memory transport
// removed).
func BenchmarkAblationCrawlSocket(b *testing.B) {
	_, domains := crawlTarget(b)
	cli := &crawler.Client{Resolve: func(string) string { return crawlSrv.URL }}
	tc := &crawler.TootCrawler{Client: cli, Workers: 10, Local: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := tc.Crawl(context.Background(), domains)
		if crawler.Summarize(results).Toots == 0 {
			b.Fatal("empty crawl")
		}
	}
}

// --- Ablations (DESIGN.md) ---

// Weakly connected components: the union-find engine. Its adjacency-list
// and BFS baselines are settled (DESIGN.md, "Settled ablations").
func BenchmarkAblationWCCUnionFind(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Social.WeaklyConnected(nil)
	}
}

// Fig 12 sweep engine: the Sweeper, buffers allocated once per sweep.
func BenchmarkAblationSweepCSRReuse(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.NewSweeper(w.Social).IterativeDegreeRemoval(0.01, 5, graph.SweepOptions{})
	}
}

// Per-round SCC recomputation cost in the Fig 12 sweep: the
// no-SCC side is exactly the SweepCSRReuse measurement, aliased explicitly
// so the trajectory name survives.
func BenchmarkAblationRemovalNoSCC(b *testing.B) { BenchmarkAblationSweepCSRReuse(b) }

func BenchmarkAblationRemovalWithSCC(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.NewSweeper(w.Social).IterativeDegreeRemoval(0.01, 5, graph.SweepOptions{WithSCC: true})
	}
}

// Federation-graph induction by the stamped group-bucket kernel.
func BenchmarkAblationInduceStamp(b *testing.B) {
	w := benchWorld(b)
	group := w.UserInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Social.Induce(group, len(w.Instances))
	}
}

// Top-degree selection by counting-sort partial selection.
func BenchmarkAblationTopDegreeBucket(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Social.TopByDegree(100, nil)
	}
}

// Reverse-incremental batch sweep vs the forward per-point Sweeper on the
// Fig 13a workload (no SCC tracking).
func BenchmarkAblationBatchSweepReverse(b *testing.B) {
	w := benchWorld(b)
	order := graph.RankDescending(w.InstanceUserWeights())
	batches := graph.SingletonBatches(order, 100)
	opt := graph.SweepOptions{Weights: w.InstanceUserWeights()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.RemoveBatches(w.Federation, batches, opt)
	}
}

func BenchmarkAblationBatchSweepForward(b *testing.B) {
	w := benchWorld(b)
	order := graph.RankDescending(w.InstanceUserWeights())
	batches := graph.SingletonBatches(order, 100)
	opt := graph.SweepOptions{Weights: w.InstanceUserWeights()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.NewSweeper(w.Federation).RemoveBatches(batches, opt)
	}
}

// Shard width of the parallel batch sweep (SCC tracking forces the
// per-point engine, which is what the shards accelerate).
func benchBatchSweepWorkers(b *testing.B, workers int) {
	w := benchWorld(b)
	order := graph.RankDescending(w.InstanceUserWeights())
	batches := graph.SingletonBatches(order, 100)
	opt := graph.SweepOptions{Weights: w.InstanceUserWeights(), WithSCC: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.RemoveBatchesParallel(w.Federation, batches, opt, workers)
	}
}

func BenchmarkAblationBatchSweepWorkers1(b *testing.B) { benchBatchSweepWorkers(b, 1) }
func BenchmarkAblationBatchSweepWorkers4(b *testing.B) { benchBatchSweepWorkers(b, 4) }
func BenchmarkAblationBatchSweepWorkersN(b *testing.B) { benchBatchSweepWorkers(b, 0) }

// Monte-Carlo sample size vs the closed form for random replication, over
// the instance sweep runFig16 runs.
func benchRandRep(b *testing.B, s replication.Strategy) {
	w := benchWorld(b)
	exp := replication.New(w)
	order := graph.RankDescending(w.InstanceTootWeights())
	batches := graph.SingletonBatches(order, min(100, len(w.Instances)/4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Sweep(s, batches)
	}
}

func BenchmarkAblationMonteCarloExact(b *testing.B) {
	benchRandRep(b, replication.RandRep{N: 2, Exact: true})
}

func BenchmarkAblationMonteCarlo16(b *testing.B) {
	benchRandRep(b, replication.RandRep{N: 2, Samples: 16, Seed: 1})
}

func BenchmarkAblationMonteCarlo128(b *testing.B) {
	benchRandRep(b, replication.RandRep{N: 2, Samples: 128, Seed: 1})
}

// Crawler worker-pool width against a served world.
func BenchmarkAblationCrawlWorkers1(b *testing.B)  { benchCrawl(b, 1) }
func BenchmarkAblationCrawlWorkers4(b *testing.B)  { benchCrawl(b, 4) }
func BenchmarkAblationCrawlWorkers16(b *testing.B) { benchCrawl(b, 16) }

// The distributed crawler fleet over the same served world: coordinator,
// work-stealing frontier and N leased workers vs a single-worker fleet —
// what lease bookkeeping costs and what stealing buys (ablation pair
// FleetCrawl/AblationFleetCrawlWorkers1; output bytes are identical either
// way, per TestFleetEquivalence).
func benchFleetCrawl(b *testing.B, workers int) {
	net, domains := crawlTarget(b)
	cli := &crawler.Client{HTTP: &http.Client{Transport: &simnet.MemoryTransport{Handler: net}}}
	fl := &fleet.Fleet{
		Crawler: &crawler.TootCrawler{Client: cli, Local: true},
		Options: fleet.Options{Workers: workers},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fl.Crawl(context.Background(), domains)
		if err != nil {
			b.Fatal(err)
		}
		if crawler.Summarize(res.Crawls).Toots == 0 {
			b.Fatal("empty crawl")
		}
	}
}

func BenchmarkFleetCrawl(b *testing.B)                 { benchFleetCrawl(b, 8) }
func BenchmarkAblationFleetCrawlWorkers1(b *testing.B) { benchFleetCrawl(b, 1) }

// --- Wire codec ablations (DESIGN.md): the hand-rolled append/streaming
// codecs of internal/wire against the reflection-based encoding/json
// baseline they replaced, on the wire shapes the §3 campaign moves most:
// a full 40-toot timeline page, the instance-info document, and the
// federation Create envelope.

func benchStatusPage() []wire.Status {
	page := make([]wire.Status, 40)
	for i := range page {
		page[i] = wire.Status{
			ID:        fmt.Sprint(4000 - i),
			CreatedAt: "2018-05-01T10:00:00.000Z",
			Content:   fmt.Sprintf("toot %d from u%d", i, i%7),
			Account:   wire.StatusAccount{Username: fmt.Sprintf("u%d", i%7), Acct: fmt.Sprintf("u%d@instance-%02d.fedi.test", i%7, i%5)},
		}
		if i%5 == 0 {
			page[i].Tags = []wire.StatusTag{{Name: "fediverse"}}
		}
		if i%11 == 0 {
			page[i].Reblog = &wire.StatusReblog{URI: fmt.Sprintf("far.test/%d", i)}
		}
	}
	return page
}

func benchInstanceInfo() *wire.InstanceInfo {
	return &wire.InstanceInfo{
		URI: "instance-0001.fedi.test", Title: "instance-0001.fedi.test",
		Version: "2.4.0", Registrations: true,
		Stats: wire.InstanceStats{UserCount: 812, StatusCount: 90417, DomainCount: 214, RemoteFollows: 3321},
	}
}

func benchActivity() *wire.Activity {
	return &wire.Activity{
		Type: "Create",
		From: wire.Actor{User: "u17", Domain: "instance-0001.fedi.test"},
		Note: &wire.Note{
			ID:        "instance-0001.fedi.test/4081",
			Author:    wire.Actor{User: "u17", Domain: "instance-0001.fedi.test"},
			Content:   "toot 3 from u17",
			Hashtags:  []string{"fediverse"},
			CreatedAt: dataset.Day(100),
		},
	}
}

func BenchmarkAblationWireEncodeStatusPage(b *testing.B) {
	page := benchStatusPage()
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendStatuses(buf[:0], page)
	}
}

func BenchmarkAblationJSONEncodeStatusPage(b *testing.B) {
	page := benchStatusPage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWireDecodeStatusPage(b *testing.B) {
	data := wire.AppendStatuses(nil, benchStatusPage())
	var page []wire.Status
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if page, err = wire.DecodeStatuses(data, page[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJSONDecodeStatusPage(b *testing.B) {
	data := wire.AppendStatuses(nil, benchStatusPage())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var page []wire.Status
		if err := json.Unmarshal(data, &page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWireEncodeInstanceInfo(b *testing.B) {
	info := benchInstanceInfo()
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendInstanceInfo(buf[:0], info)
	}
}

func BenchmarkAblationJSONEncodeInstanceInfo(b *testing.B) {
	info := benchInstanceInfo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWireDecodeInstanceInfo(b *testing.B) {
	data := wire.AppendInstanceInfo(nil, benchInstanceInfo())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var info wire.InstanceInfo
		if err := wire.DecodeInstanceInfo(data, &info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJSONDecodeInstanceInfo(b *testing.B) {
	data := wire.AppendInstanceInfo(nil, benchInstanceInfo())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var info wire.InstanceInfo
		if err := json.Unmarshal(data, &info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWireEncodeActivity(b *testing.B) {
	a := benchActivity()
	var buf []byte
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = wire.AppendActivity(buf[:0], a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJSONEncodeActivity(b *testing.B) {
	a := benchActivity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWireDecodeActivity(b *testing.B) {
	data, err := benchActivity().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a wire.Activity
		if err := wire.UnmarshalActivity(data, &a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJSONDecodeActivity(b *testing.B) {
	data, err := benchActivity().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a wire.Activity
		if err := json.Unmarshal(data, &a); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Page cache ablations (DESIGN.md): the instance server's cached
// response bytes vs re-rendering every page per request.

func benchPageServer(b *testing.B, disableCache bool) *instance.Server {
	b.Helper()
	s := instance.NewServer(instance.Config{Domain: "bench.test", Open: true, DisablePageCache: disableCache}, nil)
	if _, err := s.CreateAccount("alice", false, false, dataset.Day(0)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		var tags []string
		if i%5 == 0 {
			tags = []string{"fediverse"}
		}
		if _, err := s.PostToot(context.Background(), "alice", fmt.Sprintf("toot %d", i), tags, dataset.Day(0)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 90; i++ {
		err := s.Receive(context.Background(), &federation.Activity{
			Type:   federation.TypeFollow,
			From:   federation.Actor{User: fmt.Sprintf("f%d", i), Domain: fmt.Sprintf("far-%02d.test", i%7)},
			Target: federation.Actor{User: "alice", Domain: "bench.test"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func benchServePage(b *testing.B, s *instance.Server, path string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Host = "bench.test"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func BenchmarkAblationTimelineCached(b *testing.B) {
	benchServePage(b, benchPageServer(b, false), "/api/v1/timelines/public?local=true&limit=40")
}

func BenchmarkAblationTimelineRerendered(b *testing.B) {
	benchServePage(b, benchPageServer(b, true), "/api/v1/timelines/public?local=true&limit=40")
}

func BenchmarkAblationFollowersCached(b *testing.B) {
	benchServePage(b, benchPageServer(b, false), "/users/alice/followers")
}

func BenchmarkAblationFollowersRerendered(b *testing.B) {
	benchServePage(b, benchPageServer(b, true), "/users/alice/followers")
}

func BenchmarkAblationInstanceInfoCached(b *testing.B) {
	benchServePage(b, benchPageServer(b, false), "/api/v1/instance")
}

func BenchmarkAblationInstanceInfoRerendered(b *testing.B) {
	benchServePage(b, benchPageServer(b, true), "/api/v1/instance")
}

// Follower-page parsing: the wire scanner against the regex baseline it
// replaced (crawler.ParseFollowerPageRegexp — the specification the
// scanner is fuzzed against).
func benchFollowerPage() []byte {
	actors := make([]wire.Actor, 40)
	for i := range actors {
		actors[i] = wire.Actor{User: fmt.Sprintf("f%d", i), Domain: fmt.Sprintf("far-%02d.test", i%7)}
	}
	return wire.AppendFollowerPage(nil, "alice", actors, 1, true)
}

func BenchmarkAblationWireScanFollowerPage(b *testing.B) {
	page := benchFollowerPage()
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		wire.ScanFollowerPage(page, func(domain, user []byte) { n++ })
		if n != 40 || !wire.FollowerPageHasNext(page) {
			b.Fatal("scan lost followers")
		}
	}
}

func BenchmarkAblationRegexpScanFollowerPage(b *testing.B) {
	page := benchFollowerPage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if edges, hasNext := crawler.ParseFollowerPageRegexp("alice@bench.test", page); len(edges) != 40 || !hasNext {
			b.Fatal("regex lost followers")
		}
	}
}

// Homophily strength: how country bias shapes the Fig 6 concentration.
func benchHomophily(b *testing.B, countryBias float64) {
	cfg := gen.TinyConfig(9)
	cfg.CountryBias = countryBias
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := gen.Generate(cfg)
		r := analysis.Fig6CountryFlows(w, 5)
		if r.SameCountryPct < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkAblationHomophilyNone(b *testing.B)    { benchHomophily(b, 0) }
func BenchmarkAblationHomophilyPaper(b *testing.B)   { benchHomophily(b, 0.25) }
func BenchmarkAblationHomophilyExtreme(b *testing.B) { benchHomophily(b, 0.9) }

// --- Extension experiments ---

func BenchmarkExtBlocking(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ExtBlocking(w)
	}
}

// runExtCapacity's parameters.
func BenchmarkExtCapacity(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ExtCapacity(w, 2, min(50, len(w.Instances)/4), 12)
	}
}

func BenchmarkExtDHT(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ExtDHT(w, 50, 10)
	}
}

func BenchmarkDHTLookup(b *testing.B) {
	ring := dht.NewRing(3)
	domains := make([]string, 1024)
	for i := range domains {
		domains[i] = fmt.Sprintf("instance-%04d.fedi.test", i)
	}
	ring.JoinAll(domains)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ring.Lookup(fmt.Sprintf("key-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDHTJoinAll(b *testing.B) {
	domains := make([]string, 1024)
	for i := range domains {
		domains[i] = fmt.Sprintf("instance-%04d.fedi.test", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring := dht.NewRing(3)
		ring.JoinAll(domains)
	}
}

func BenchmarkWorldSaveLoad(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := dataset.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// World file save and load. The gob baselines are settled (DESIGN.md,
// "Settled ablations").

func BenchmarkWorldSave(b *testing.B) {
	w := benchWorld(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkWorldLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := benchWorld(b).Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// Sharded generation with one worker per CPU vs forced single-shard
// (ablation pair GenerateParallel/AblationGenerateShard1). Output bytes
// are identical either way; only wall time differs.

func benchGenerate(b *testing.B, shards int) {
	b.Helper()
	cfg := gen.SmallConfig(1)
	cfg.Shards = shards
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(cfg)
	}
}

func BenchmarkGenerateParallel(b *testing.B)       { benchGenerate(b, 0) }
func BenchmarkAblationGenerateShard1(b *testing.B) { benchGenerate(b, 1) }

// --- Serving-path ablations (DESIGN.md "The serving path and fediload") ---

// Conditional GET: a revalidation that answers 304 from the generation
// counter vs the same request transferring the full cached body.
func benchConditionalGet(b *testing.B, revalidate bool) {
	s := benchPageServer(b, false)
	path := "/api/v1/timelines/public?local=true&limit=40"
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Host = "bench.test"
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Header().Get("Etag") == "" {
		b.Fatalf("prime request: status %d etag %q", rec.Code, rec.Header().Get("Etag"))
	}
	want := 200
	if revalidate {
		req.Header.Set("If-None-Match", rec.Header().Get("Etag"))
		want = 304
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != want {
			b.Fatalf("status %d, want %d", rec.Code, want)
		}
	}
}

func BenchmarkAblationETagRevalidate(b *testing.B) { benchConditionalGet(b, true) }
func BenchmarkAblationETagFullFetch(b *testing.B)  { benchConditionalGet(b, false) }

// Streamed timeline encoder (slab rows → wire bytes, no intermediate
// slice) vs the materialised []Toot → []wire.Status path. The page cache
// is disabled so every request pays the render being measured; the two
// paths produce byte-identical output (TestTimelineStreamByteIdentity).
func benchTimelineRender(b *testing.B, disableStream bool) {
	b.Helper()
	s := instance.NewServer(instance.Config{
		Domain: "bench.test", Open: true,
		DisablePageCache:      true,
		DisableTimelineStream: disableStream,
	}, nil)
	if _, err := s.CreateAccount("alice", false, false, dataset.Day(0)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		var tags []string
		if i%5 == 0 {
			tags = []string{"fediverse"}
		}
		if _, err := s.PostToot(context.Background(), "alice", fmt.Sprintf("toot %d", i), tags, dataset.Day(0)); err != nil {
			b.Fatal(err)
		}
	}
	benchServePage(b, s, "/api/v1/timelines/public?local=true&limit=40")
}

func BenchmarkAblationTimelineStreamed(b *testing.B)     { benchTimelineRender(b, false) }
func BenchmarkAblationTimelineMaterialised(b *testing.B) { benchTimelineRender(b, true) }

// HTTP keep-alive on the load path: the same open-loop plan over pooled
// persistent connections vs a fresh TCP dial per request.
func benchLoadKeepAlive(b *testing.B, noKeepAlive bool) {
	b.Helper()
	_, domains := crawlTarget(b)
	plan := make([]loadgen.Request, 400)
	for i := range plan {
		plan[i] = loadgen.Request{Domain: domains[i%len(domains)], Path: "/api/v1/instance"}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := loadgen.Run(context.Background(), plan, loadgen.RunConfig{
			Target:      crawlSrv.URL,
			Workers:     8,
			NoKeepAlive: noKeepAlive,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Status2xx == 0 {
			b.Fatal("no successful requests")
		}
	}
}

func BenchmarkAblationLoadKeepAlive(b *testing.B)   { benchLoadKeepAlive(b, false) }
func BenchmarkAblationLoadNoKeepAlive(b *testing.B) { benchLoadKeepAlive(b, true) }
