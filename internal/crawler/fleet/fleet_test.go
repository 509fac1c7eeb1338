package fleet

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

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/vclock"
)

// crawlNet serves a small generated world over a real test listener; the
// fleet under test reaches it exactly like fedicrawl reaches fediserve.
func crawlNet(t *testing.T) (*crawler.Client, []string) {
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
	domains := make([]string, len(w.Instances))
	for i := range w.Instances {
		domains[i] = w.Instances[i].Domain
	}
	cli := &crawler.Client{
		HTTP:    srv.Client(),
		Resolve: func(string) string { return srv.URL },
	}
	return cli, domains
}

// flatCrawl is the single-worker oracle every fleet run must reproduce.
func flatCrawl(cli *crawler.Client, domains []string) []crawler.InstanceCrawl {
	tc := &crawler.TootCrawler{Client: cli, Workers: 1, Local: true}
	return tc.Crawl(context.Background(), domains)
}

// TestFleetMatchesFlatCrawl: the fleet's harvest equals the single-worker
// TootCrawler crawl, result for result in domain order, for several worker
// counts — the package-level half of simnet's TestFleetEquivalence.
func TestFleetMatchesFlatCrawl(t *testing.T) {
	cli, domains := crawlNet(t)
	want := flatCrawl(cli, domains)
	wantMarks := Marks(want)
	for _, workers := range []int{1, 2, 3, 8, 16} {
		f := &Fleet{
			Crawler: &crawler.TootCrawler{Client: cli, Local: true},
			Options: Options{Workers: workers},
		}
		res, err := f.Crawl(context.Background(), domains)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Crawls, want) {
			t.Fatalf("workers=%d: fleet harvest differs from the flat crawl", workers)
		}
		if !reflect.DeepEqual(res.HighWater(), wantMarks) {
			t.Fatalf("workers=%d: fleet marks differ from the flat crawl's", workers)
		}
		st := res.Stats
		if st.Workers != workers || st.Domains != len(domains) || st.Leases != len(domains) ||
			st.Dead != 0 || st.Abandoned != 0 || st.Reassigned != 0 {
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

	const ttl = 10 * time.Minute
	start := dataset.Day(0)
	clk := vclock.NewElastic(start)
	cli.Clock = clk
	f := &Fleet{
		Crawler: &crawler.TootCrawler{Client: cli, Local: true},
		Clock:   clk,
		Options: Options{
			Workers:  3,
			LeaseTTL: ttl,
			Kill:     []Kill{{Domain: 7}},
		},
	}
	res, err := f.Crawl(context.Background(), domains)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Crawls, want) {
		t.Fatal("harvest after worker death differs from the flat crawl")
	}
	st := res.Stats
	if st.Dead != 1 || st.Abandoned != 1 || st.Reassigned != 1 {
		t.Fatalf("kill not reflected in stats: %+v", st)
	}
	if st.Leases != len(domains)+1 {
		t.Fatalf("%d leases issued, want %d (every domain once plus one re-issue)",
			st.Leases, len(domains)+1)
	}
	// Re-assignment happens at the lease deadline, so virtual time must
	// have crossed at least one full TTL.
	if adv := clk.Now().Sub(start); adv < ttl {
		t.Fatalf("virtual time advanced only %v, want at least the %v lease TTL", adv, ttl)
	}
}

// TestFleetAllWorkersDead: a fleet with no survivors reports failure
// instead of hanging on the orphaned leases.
func TestFleetAllWorkersDead(t *testing.T) {
	cli, domains := crawlNet(t)
	clk := vclock.NewElastic(dataset.Day(0))
	cli.Clock = clk
	// Every domain is a kill: both workers die on their very first lease,
	// whatever those leases turn out to be.
	kill := make([]Kill, len(domains))
	for d := range domains {
		kill[d] = Kill{Domain: d}
	}
	f := &Fleet{
		Crawler: &crawler.TootCrawler{Client: cli, Local: true},
		Clock:   clk,
		Options: Options{
			Workers:  2,
			LeaseTTL: time.Minute,
			Kill:     kill,
		},
	}
	if _, err := f.Crawl(context.Background(), domains); err == nil {
		t.Fatal("fleet with every worker dead returned no error")
	}
}

// TestFleetCancel: cancellation aborts the run with ctx's error and without
// deadlocking workers parked in the frontier.
func TestFleetCancel(t *testing.T) {
	cli, domains := crawlNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &Fleet{
		Crawler: &crawler.TootCrawler{Client: cli, Local: true},
		Options: Options{Workers: 4},
	}
	if _, err := f.Crawl(ctx, domains); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
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

// TestFlatCrawlCancelledMidRun: TootCrawler.Crawl used to return the zero
// InstanceCrawl for every domain it had not reached when ctx was cancelled
// — no domain, not offline, no error — which Summarize counted as online and
// Marks checkpointed under the key "". A domain nobody visited must read as
// offline with ctx's error, and must leave no mark.
func TestFlatCrawlCancelledMidRun(t *testing.T) {
	cli, domains := crawlNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cli.HTTP = &http.Client{Transport: &cancelAfter{inner: cli.HTTP.Transport, n: 4, cancel: cancel}}
	tc := &crawler.TootCrawler{Client: cli, Workers: 2, Local: true}
	crawls := tc.Crawl(ctx, domains)

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
	if sum := crawler.Summarize(crawls); sum.Online+unvisited > len(domains) {
		t.Errorf("%d online of %d instances with %d never visited", sum.Online, len(domains), unvisited)
	}
	for dom := range Marks(crawls) {
		if i := slices.Index(domains, dom); i < 0 || crawls[i].Pages == 0 {
			t.Errorf("mark for %q, which was not harvested", dom)
		}
	}
}

// TestFrontierStealOrder: the deterministic parts of the frontier protocol
// — round-robin dealing, own-queue-first pops, tail steals from the longest
// victim queue.
func TestFrontierStealOrder(t *testing.T) {
	fr := newFrontier(5, 2, vclock.System(), time.Minute)
	// Deal: worker 0 holds [0 2 4], worker 1 holds [1 3].
	l0, ok := fr.pop(context.Background(), 0)
	if !ok || l0.Domain != 0 || l0.Epoch != 1 {
		t.Fatalf("first pop for worker 0: %+v", l0)
	}
	for _, want := range []int{1, 3} {
		l, ok := fr.pop(context.Background(), 1)
		if !ok || l.Domain != want {
			t.Fatalf("worker 1 popped %+v, want domain %d", l, want)
		}
		if !fr.report(l) {
			t.Fatal("live report rejected")
		}
	}
	// Worker 1's queue is dry: it must steal the tail of worker 0's queue.
	l4, ok := fr.pop(context.Background(), 1)
	if !ok || l4.Domain != 4 {
		t.Fatalf("steal popped %+v, want domain 4 (victim tail)", l4)
	}
	if st := fr.snapshot(); st.Steals != 1 {
		t.Fatalf("stats %+v, want exactly one steal", st)
	}
	// Double-report of the same domain is rejected.
	if !fr.report(l4) || fr.report(l4) {
		t.Fatal("duplicate report accepted")
	}
}

// TestFrontierLeaseExpiry drives expiry on a manual virtual clock: an
// abandoned lease is only re-issued once virtual time crosses its deadline,
// and a stale report from the dead holder is discarded.
func TestFrontierLeaseExpiry(t *testing.T) {
	start := dataset.Day(0)
	clk := vclock.NewSim(start)
	const ttl = 3 * time.Minute
	fr := newFrontier(1, 2, clk, ttl)

	dead, ok := fr.pop(context.Background(), 0)
	if !ok || dead.Domain != 0 {
		t.Fatalf("pop: %+v", dead)
	}
	fr.abandon(dead)

	type popRes struct {
		l  *Lease
		ok bool
	}
	got := make(chan popRes, 1)
	go func() {
		l, ok := fr.pop(context.Background(), 1)
		got <- popRes{l, ok}
	}()
	// The reclaiming worker must park on the clock until the deadline.
	for clk.WaiterCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-got:
		t.Fatalf("lease re-issued before its deadline: %+v", r.l)
	default:
	}
	clk.Advance(ttl)
	r := <-got
	if !r.ok || r.l.Domain != 0 || r.l.Epoch != 2 || r.l.Worker != 1 {
		t.Fatalf("re-issued lease %+v, want domain 0 epoch 2 worker 1", r.l)
	}
	if fr.report(dead) {
		t.Fatal("stale report from the dead holder was accepted")
	}
	if !fr.report(r.l) {
		t.Fatal("current lease's report rejected")
	}
	if st := fr.snapshot(); st.Abandoned != 1 || st.Reassigned != 1 || st.Leases != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestMarksRoundTrip: the marks file format is byte-stable and round-trips,
// and Marks applies the no-partial-checkpoint rule.
func TestMarksRoundTrip(t *testing.T) {
	crawls := []crawler.InstanceCrawl{
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
