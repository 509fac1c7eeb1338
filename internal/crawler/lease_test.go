package crawler

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/vclock"
)

// crawlNet serves a small generated world over a real test listener; the
// crawl under test reaches it exactly like fedicrawl reaches fediserve.
func crawlNet(t *testing.T) (*Client, []string) {
	t.Helper()
	cfg := gen.TinyConfig(4)
	cfg.Instances = 12
	cfg.Users = 150
	cfg.Days = 3
	w := gen.Generate(cfg)
	net, err := instance.LoadWorld(context.Background(), w, instance.LoadOptions{MaxTootsPerUser: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(net)
	t.Cleanup(srv.Close)
	cli := &Client{
		HTTP:    srv.Client(),
		Resolve: func(string) string { return srv.URL },
	}
	return cli, domainsOf(w)
}

// flatCrawl is the oracle every leased crawl must reproduce: one
// CrawlInstance per domain, in order, on one goroutine.
func flatCrawl(cli *Client, domains []string) []InstanceCrawl {
	tc := &TootCrawler{Client: cli, Local: true}
	out := make([]InstanceCrawl, len(domains))
	for i, d := range domains {
		out[i] = tc.CrawlInstance(context.Background(), d)
	}
	return out
}

// TestFleetMatchesFlatCrawl: the leased crawl's harvest equals the flat
// crawl, result for result in domain order, for several worker counts —
// the package-level half of simnet's TestFleetEquivalence.
func TestFleetMatchesFlatCrawl(t *testing.T) {
	cli, domains := crawlNet(t)
	want := flatCrawl(cli, domains)
	wantMarks := Marks(want)
	for _, workers := range []int{1, 2, 3, 8, 16} {
		tc := &TootCrawler{Client: cli, Workers: workers, Local: true}
		crawls, st, err := tc.Crawl(context.Background(), domains)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(crawls, want) {
			t.Fatalf("workers=%d: leased harvest differs from the flat crawl", workers)
		}
		if !reflect.DeepEqual(Marks(crawls), wantMarks) {
			t.Fatalf("workers=%d: leased marks differ from the flat crawl's", workers)
		}
		if st != (CrawlStats{Workers: workers, Domains: len(domains), Leases: len(domains)}) {
			t.Fatalf("workers=%d: unexpected stats %+v", workers, st)
		}
	}
}

// TestFleetKillReassigns: a worker dying mid-domain abandons its lease, the
// lease expires at its virtual-time deadline, another worker re-crawls the
// domain, and the final harvest is still byte-identical — the partial
// harvest is gone without trace.
func TestFleetKillReassigns(t *testing.T) {
	cli, domains := crawlNet(t)
	want := flatCrawl(cli, domains)

	start := dataset.Day(0)
	clk := vclock.NewElastic(start)
	cli.Clock = clk
	tc := &TootCrawler{Client: cli, Workers: 3, Local: true, Kill: []Kill{{Domain: 7}}}
	crawls, st, err := tc.Crawl(context.Background(), domains)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crawls, want) {
		t.Fatal("harvest after worker death differs from the flat crawl")
	}
	if st.Dead != 1 || st.Abandoned != 1 || st.Reassigned != 1 {
		t.Fatalf("kill not reflected in stats: %+v", st)
	}
	if st.Leases != len(domains)+1 {
		t.Fatalf("%d leases issued, want %d (every domain once plus one re-issue)",
			st.Leases, len(domains)+1)
	}
	// Re-assignment happens at the lease deadline, so virtual time must
	// have crossed at least one full TTL.
	if adv := clk.Now().Sub(start); adv < leaseTTL {
		t.Fatalf("virtual time advanced only %v, want at least the %v lease TTL", adv, leaseTTL)
	}
}

// TestFleetAllWorkersDead: a crawl with no surviving worker reports
// failure instead of hanging on the orphaned leases, and every domain it
// did not finish reads offline with that error.
func TestFleetAllWorkersDead(t *testing.T) {
	cli, domains := crawlNet(t)
	cli.Clock = vclock.NewElastic(dataset.Day(0))
	// Every domain is a kill: both workers die on their very first lease,
	// whatever those leases turn out to be.
	kill := make([]Kill, len(domains))
	for d := range domains {
		kill[d] = Kill{Domain: d}
	}
	tc := &TootCrawler{Client: cli, Workers: 2, Local: true, Kill: kill}
	crawls, _, err := tc.Crawl(context.Background(), domains)
	if err == nil {
		t.Fatal("crawl with every worker dead returned no error")
	}
	for i, c := range crawls {
		if c.Domain != domains[i] || !c.Offline || c.Err != err {
			t.Fatalf("unharvested domain %d reads %+v, want %s offline with the crawl's error", i, c, domains[i])
		}
	}
}

// TestFleetCancel: cancellation aborts the run with ctx's error and without
// deadlocking workers parked in the frontier.
func TestFleetCancel(t *testing.T) {
	cli, domains := crawlNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := &TootCrawler{Client: cli, Workers: 4, Local: true}
	crawls, _, err := tc.Crawl(ctx, domains)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(crawls) != len(domains) {
		t.Fatalf("%d results for %d domains", len(crawls), len(domains))
	}
}

// cancelAfter cancels a context when the n-th request goes out.
type cancelAfter struct {
	inner  http.RoundTripper
	n      int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.inner.RoundTrip(req)
}

// TestFlatCrawlCancelledMidRun: the crawl once returned the zero
// InstanceCrawl for every domain it had not reached when ctx was cancelled
// — no domain, not offline, no error — which Summarize counted as online and
// Marks checkpointed under the key "". A domain nobody finished must read
// as offline with ctx's error, and must leave no mark.
func TestFlatCrawlCancelledMidRun(t *testing.T) {
	cli, domains := crawlNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cli.HTTP = &http.Client{Transport: &cancelAfter{inner: cli.HTTP.Transport, n: 4, cancel: cancel}}
	tc := &TootCrawler{Client: cli, Workers: 2, Local: true}
	crawls, _, err := tc.Crawl(ctx, domains)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	unvisited := 0
	for i, c := range crawls {
		if c.Domain != domains[i] {
			t.Errorf("result %d is for domain %q, want %q", i, c.Domain, domains[i])
		}
		if c.Pages == 0 && !c.Blocked {
			if !c.Offline || !errors.Is(c.Err, context.Canceled) {
				t.Errorf("%s was never harvested and reads as %+v, want offline with ctx's error", c.Domain, c)
			}
			unvisited++
		}
	}
	if unvisited == 0 {
		t.Fatal("the cancellation left no domain unvisited; the test exercises nothing")
	}
	if sum := Summarize(crawls); sum.Online+unvisited > len(domains) {
		t.Errorf("%d online of %d instances with %d never visited", sum.Online, len(domains), unvisited)
	}
	for dom := range Marks(crawls) {
		if i := slices.Index(domains, dom); i < 0 || crawls[i].Pages == 0 {
			t.Errorf("mark for %q, which was not harvested", dom)
		}
	}
}

// TestFrontierInOrder: the frontier hands out never-leased domains in
// index order, each under epoch 1, accepts one report per domain and
// rejects a duplicate, and reports exhaustion once every domain is done.
func TestFrontierInOrder(t *testing.T) {
	ctx := context.Background()
	fr := newFrontier(3, vclock.System())
	var held []*lease
	for want := range 3 {
		l, ok := fr.pop(ctx)
		if !ok || l.domain != want || l.epoch != 1 {
			t.Fatalf("pop %d: %+v, want domain %d epoch 1", want, l, want)
		}
		held = append(held, l)
	}
	for _, l := range held {
		if !fr.report(l, false) {
			t.Fatalf("live report for domain %d rejected", l.domain)
		}
	}
	if fr.report(held[1], false) {
		t.Fatal("duplicate report accepted")
	}
	if l, ok := fr.pop(ctx); ok {
		t.Fatalf("pop after every domain reported: %+v", l)
	}
	if fr.stats != (CrawlStats{Domains: 3, Leases: 3}) {
		t.Fatalf("stats %+v", fr.stats)
	}
}

// TestFrontierLeaseExpiry drives expiry on a manual virtual clock: an
// abandoned lease is only re-issued once virtual time crosses its deadline,
// and a stale report from the dead holder is discarded.
func TestFrontierLeaseExpiry(t *testing.T) {
	clk := vclock.NewSim(dataset.Day(0))
	fr := newFrontier(1, clk)

	dead, ok := fr.pop(context.Background())
	if !ok || dead.domain != 0 {
		t.Fatalf("pop: %+v", dead)
	}
	fr.abandon(dead)

	got := make(chan *lease, 1)
	go func() {
		l, _ := fr.pop(context.Background())
		got <- l
	}()
	// The reclaiming worker must park on the clock until the deadline.
	for clk.WaiterCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case l := <-got:
		t.Fatalf("lease re-issued before its deadline: %+v", l)
	default:
	}
	clk.Advance(leaseTTL)
	l := <-got
	if l == nil || l.domain != 0 || l.epoch != 2 {
		t.Fatalf("re-issued lease %+v, want domain 0 epoch 2", l)
	}
	if fr.report(dead, false) {
		t.Fatal("stale report from the dead holder was accepted")
	}
	if !fr.report(l, false) {
		t.Fatal("current lease's report rejected")
	}
	if st := fr.stats; st.Abandoned != 1 || st.Dead != 1 || st.Reassigned != 1 || st.Leases != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestMarksRoundTrip: the marks file format is byte-stable and round-trips,
// and Marks applies the no-partial-checkpoint rule.
func TestMarksRoundTrip(t *testing.T) {
	crawls := []InstanceCrawl{
		{Domain: "a.sim", MaxID: 41},
		{Domain: "b.sim", MaxID: 7, Blocked: true},
		{Domain: "c.sim", MaxID: 9, Offline: true},
		{Domain: "d.sim", MaxID: 13, Err: context.DeadlineExceeded},
		{Domain: "e.sim", MaxID: 0},
	}
	marks := Marks(crawls)
	want := map[string]int64{"a.sim": 41, "e.sim": 0}
	if !reflect.DeepEqual(marks, want) {
		t.Fatalf("marks %v, want %v", marks, want)
	}
	enc, err := EncodeMarks(marks)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeMarks(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, marks) {
		t.Fatalf("round-trip %v, want %v", dec, marks)
	}
	enc2, err := EncodeMarks(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("marks encoding is not byte-stable")
	}
	if _, err := DecodeMarks([]byte("not json")); err == nil {
		t.Fatal("bad marks file accepted")
	}
}
