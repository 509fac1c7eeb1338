package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/simnet"
)

// campaignBench is the §3 measurement pipeline with no sockets: on one
// harness, repeat RunCampaign → Rebuild → Save until the time is up. An
// operation is one crawler HTTP request, served by the in-memory transport.
type campaignBench struct {
	o       options
	h       *simnet.Harness
	cfg     simnet.CampaignConfig
	want    []byte // what a flawless campaign's rebuilt world saves as
	rt      *crawlTransport
	perRep  int64 // requests of the first repetition; all must match it
	repeats int
}

func setupCampaign(o options, tr *tracer) (bench, error) {
	s := sizesOf(o)
	cfg := worldConfig(o, worldSeed)
	cfg.Days = s.campaignDays
	cfg.MassExpiryDay = -1
	b := &campaignBench{o: o}
	// The seed picks where, within four hours, the probe window starts.
	// It is kept that narrow because outages are correlated: the share of
	// instances down over a window ranges from 14% to 36% across the
	// traces, and each such window is a different workload.
	start := 2*dataset.SlotsPerDay + rand.New(rand.NewSource(int64(o.seed))).Intn(48)
	b.cfg = simnet.CampaignConfig{
		StartSlot: start, Slots: s.campaignSlots,
		ProbeWorkers: cores(), CrawlWorkers: cores(), ScrapeWorkers: cores(),
	}
	var err error
	var w *dataset.World
	tr.do(spanGenerate, 0, 0, func(uint64) { w = gen.Generate(cfg) })
	tr.do(spanSimnetNew, 0, 0, func(uint64) {
		b.h, err = simnet.New(context.Background(), w, simnet.Options{
			MaxTootsPerUser: s.campaignToots, Retries: 2, Backoff: 50 * time.Millisecond,
		})
	})
	if err != nil {
		return nil, err
	}
	expected, _ := simnet.ExpectedWorld(b.h.World, simnet.ExpectedConfig{
		StartSlot: b.cfg.StartSlot, Slots: b.cfg.Slots, MaxTootsPerUser: s.campaignToots,
	})
	var buf bytes.Buffer
	if err := expected.Save(&buf); err != nil {
		return nil, err
	}
	b.want = buf.Bytes()
	if o.sabotage {
		b.want = append(b.want, 0)
	}
	// Installed from outside, around the harness's own transport. Until a
	// tracer is attached it only counts: one atomic add per request.
	b.rt = &crawlTransport{next: b.h.Client.HTTP.Transport}
	b.h.Client.HTTP = &http.Client{Transport: b.rt}
	// One untimed repetition fills the servers' page caches and fixes the
	// request count; if it is wrong, so is every timed one, and they count.
	b.repetition(nil)
	return b, nil
}

func (b *campaignBench) run(d time.Duration, tr *tracer) phase {
	b.rt.tr.Store(tr)
	defer b.rt.tr.Store(nil)
	var ph phase
	start := time.Now()
	for time.Since(start) < d {
		reqs, ok := b.repetition(tr)
		ph.ops += reqs
		if !ok {
			ph.failed += reqs
		}
	}
	ph.wall = time.Since(start)
	return ph
}

// repetition runs one campaign, rebuilds the world from what it collected
// and saves it; the saved bytes must equal the expected world's, and the
// request count the first repetition's.
func (b *campaignBench) repetition(tr *tracer) (requests int64, ok bool) {
	b.repeats++
	before := b.rt.n.Load()
	var saved bytes.Buffer
	var err error
	tr.do(spanRepetition, 0, int64(b.repeats), func(rep uint64) {
		b.rt.begin(rep)
		start := tr.nowOrZero()
		var res *simnet.CampaignResult
		res, err = b.h.RunCampaign(context.Background(), b.cfg)
		end := tr.nowOrZero()
		if err != nil {
			return
		}
		if tr != nil {
			// A phase runs from its first request to the next phase's first.
			crawl := b.rt.firstOr(spanMemTimeline, end)
			scrape := b.rt.firstOr(spanMemFollowers, end)
			crawl = min(crawl, scrape)
			op := int64(b.repeats)
			tr.add(0, span{kind: spanProbe, id: tr.nextID.Add(1), parent: rep, op: op, start: start, end: crawl})
			tr.add(0, span{kind: spanCrawl, id: tr.nextID.Add(1), parent: rep, op: op, start: crawl, end: scrape})
			tr.add(0, span{kind: spanScrape, id: tr.nextID.Add(1), parent: rep, op: op, start: scrape, end: end})
		}
		var w *dataset.World
		tr.do(spanRebuild, rep, int64(b.repeats), func(uint64) { w, _ = simnet.Rebuild(res) })
		tr.do(spanSave, rep, int64(b.repeats), func(uint64) { err = w.Save(&saved) })
	})
	requests = b.rt.n.Load() - before
	if b.perRep == 0 {
		b.perRep = requests
	}
	return requests, err == nil && requests == b.perRep && bytes.Equal(saved.Bytes(), b.want)
}

func (b *campaignBench) finish() (attempted, failed int64) { return 0, 0 }
func (b *campaignBench) close()                            {}

func (t *tracer) nowOrZero() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// crawlTransport wraps the harness's transport. It always counts requests;
// with a tracer attached it also times each one and notes when each class
// of request was first seen in the current repetition.
type crawlTransport struct {
	next http.RoundTripper
	n    atomic.Int64
	tr   atomic.Pointer[tracer]

	rep   atomic.Uint64                  // the current repetition's span id
	first [spanMemOther + 1]atomic.Int64 // per class: start of its first request, 0 = none yet
}

func (t *crawlTransport) begin(rep uint64) {
	t.rep.Store(rep)
	for i := range t.first {
		t.first[i].Store(0)
	}
}

func (t *crawlTransport) firstOr(class spanKind, fallback int64) int64 {
	if v := t.first[class].Load(); v != 0 {
		return v
	}
	return fallback
}

func requestClass(path string) spanKind {
	switch {
	case path == "/api/v1/instance":
		return spanMemProbe
	case strings.HasPrefix(path, "/api/v1/timelines/"):
		return spanMemTimeline
	case strings.HasPrefix(path, "/users/"):
		return spanMemFollowers
	}
	return spanMemOther
}

func (t *crawlTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	seq := t.n.Add(1)
	tr := t.tr.Load()
	if tr == nil {
		return t.next.RoundTrip(req)
	}
	class := requestClass(req.URL.Path)
	start := tr.now()
	t.first[class].CompareAndSwap(0, start)
	resp, err := t.next.RoundTrip(req)
	s := span{kind: class, id: memSpanBase | uint64(seq), parent: t.rep.Load(), op: seq, start: start, end: tr.now()}
	if resp != nil {
		s.status = int32(resp.StatusCode)
	}
	tr.add(1+int(seq), s)
	return resp, err
}

// layers reports each phase as its median over the traced repetitions,
// the request counts of one repetition, and which side of the in-memory
// transport the time went to.
func (b *campaignBench) layers(_ time.Duration, _ *tracer, all []span, _ phase) map[string]float64 {
	m := setupLayers(all)
	for kind, name := range map[spanKind]string{
		spanProbe: "simnet.probe_s", spanCrawl: "simnet.crawl_s", spanScrape: "simnet.scrape_s",
		spanRebuild: "simnet.rebuild_s", spanSave: "dataset.save_s",
	} {
		m[name] = median(secondsOf(all, kind))
	}

	reps := float64(len(secondsOf(all, spanRepetition)))
	var inTransport time.Duration
	var requests, non2xx float64
	count := map[spanKind]float64{}
	for i := range all {
		s := &all[i]
		if s.kind < spanMemProbe {
			continue
		}
		requests++
		count[s.kind]++
		inTransport += s.dur()
		if s.status/100 != 2 {
			non2xx++
		}
	}
	m["crawler.probe_requests"] = count[spanMemProbe] / reps
	m["crawler.timeline_requests"] = count[spanMemTimeline] / reps
	m["crawler.follower_requests"] = count[spanMemFollowers] / reps
	m["crawler.non2xx_share"] = non2xx / requests
	m["instance.mem_probe_us"] = meanUS(all, func(s *span) bool { return s.kind == spanMemProbe })
	m["instance.mem_timeline_us"] = meanUS(all, func(s *span) bool { return s.kind == spanMemTimeline })
	m["instance.mem_followers_us"] = meanUS(all, func(s *span) bool { return s.kind == spanMemFollowers })
	// The crawling phases keep C workers busy; what they do not spend
	// inside the transport is the crawler and its decoders.
	var crawling float64
	for _, kind := range []spanKind{spanProbe, spanCrawl, spanScrape} {
		for _, s := range secondsOf(all, kind) {
			crawling += s
		}
	}
	m["crawler.self_share"] = 1 - inTransport.Seconds()/(crawling*float64(cores()))
	return m
}
