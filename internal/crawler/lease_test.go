package crawler

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
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
	tc := &TootCrawler{Client: cli}
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
		tc := &TootCrawler{Client: cli, Workers: workers}
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
	tc := &TootCrawler{Client: cli, Workers: 3, Kill: []Kill{{Domain: 7}}}
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
	tc := &TootCrawler{Client: cli, Workers: 2, Kill: kill}
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
	tc := &TootCrawler{Client: cli, Workers: 4}
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
	tc := &TootCrawler{Client: cli, Workers: 2}
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

// countHosts counts the timeline requests that go out to each domain.
type countHosts struct {
	inner http.RoundTripper
	mu    sync.Mutex
	n     map[string]int
}

func (c *countHosts) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n[req.Host]++
	c.mu.Unlock()
	return c.inner.RoundTrip(req)
}

func (c *countHosts) get(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[host]
}

// TestFleetKillWaitsForTTL drives a worker death on a manual virtual
// clock: the killed domain is not fetched again until virtual time crosses
// leaseTTL after the death, and then the crawl returns the flat crawl's
// harvest.
func TestFleetKillWaitsForTTL(t *testing.T) {
	cli, domains := crawlNet(t)
	want := flatCrawl(cli, domains)

	const victim = 3
	hosts := &countHosts{inner: cli.HTTP.Transport, n: map[string]int{}}
	cli.HTTP = &http.Client{Transport: hosts}
	clk := vclock.NewSim(dataset.Day(0))
	cli.Clock = clk
	tc := &TootCrawler{Client: cli, Workers: 3, Kill: []Kill{{Domain: victim}}}

	type result struct {
		crawls []InstanceCrawl
		err    error
	}
	got := make(chan result, 1)
	go func() {
		crawls, _, err := tc.Crawl(context.Background(), domains)
		got <- result{crawls, err}
	}()
	// The survivors must park on the clock until the killed domain's TTL.
	for clk.WaiterCount() != 1 {
		select {
		case r := <-got:
			t.Fatalf("crawl returned (err %v) without waiting on the clock for the killed domain", r.err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if n := hosts.get(domains[victim]); n != 1 {
		t.Fatalf("killed domain fetched %d times before its TTL, want the one page its worker died on", n)
	}
	clk.Advance(leaseTTL)
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !reflect.DeepEqual(r.crawls, want) {
		t.Fatal("harvest after the TTL re-crawl differs from the flat crawl")
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
