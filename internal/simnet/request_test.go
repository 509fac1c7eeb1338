package simnet

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/wire"
)

// TestScrapeAccountHostileAccts: an acct is read out of crawled pages, so
// whatever its user part holds must reach the server as one path segment of
// the host the acct names, and a domain part that is more than a host must
// reach nobody. The handler notes what it saw of every request.
func TestScrapeAccountHostileAccts(t *testing.T) {
	var saw []string
	rt := &MemoryTransport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		saw = append(saw, fmt.Sprintf("%s %q %q ?%s", r.Host, r.URL.Path, r.URL.EscapedPath(), r.URL.RawQuery))
		w.Write(wire.AppendFollowerPage(nil, "x", []wire.Actor{{User: "f", Domain: "far.test"}}, 1, false))
	})}
	fs := &crawler.FollowerScraper{Client: &crawler.Client{HTTP: &http.Client{Transport: rt}, Retries: 1}}
	for _, tc := range []struct{ acct, saw string }{
		{"alice@d.test", `d.test "/users/alice/followers" "/users/alice/followers" ?page=1`},
		{"a?x=1@d.test", `d.test "/users/a?x=1/followers" "/users/a%3Fx=1/followers" ?page=1`},
		{"a#frag@d.test", `d.test "/users/a#frag/followers" "/users/a%23frag/followers" ?page=1`},
		{"a%2fb@d.test", `d.test "/users/a%2fb/followers" "/users/a%252fb/followers" ?page=1`},
		{"a/../b@d.test", `d.test "/users/a/../b/followers" "/users/a%2F..%2Fb/followers" ?page=1`},
		{"a b@d.test", `d.test "/users/a b/followers" "/users/a%20b/followers" ?page=1`},
		{"ü@d.test:8080", `d.test:8080 "/users/ü/followers" "/users/%C3%BC/followers" ?page=1`},
		{"a@d.test/users/b", ""},
		{"a@d.test?x=1", ""},
		{"a@d.test#x", ""},
		{"a@d .test", ""},
		{"a@d.test%2f", ""},
		{"a@b@d.test", ""}, // the domain part is b@d.test: userinfo
		{"a@[::1]", ""},
		{"a@d.test:", ""},
	} {
		saw = nil
		res := fs.Scrape(context.Background(), []string{tc.acct})
		err := res.Errors[tc.acct]
		if tc.saw == "" {
			if err == nil || !strings.Contains(err.Error(), "malformed acct") || len(saw) != 0 || len(res.Followers[0]) != 0 {
				t.Errorf("%q: err %v, followers %v, and the server saw %q; want it refused unsent", tc.acct, err, res.Followers, saw)
			}
			continue
		}
		want := crawler.ScrapeResult{
			Accounts: []string{tc.acct, "f@far.test"}, Followers: [][]int32{{1}}, Errors: map[string]error{},
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%q: scraped %+v, want %+v", tc.acct, res, want)
		}
		if len(saw) != 1 || saw[0] != tc.saw {
			t.Errorf("%q: the server saw %q, want %q", tc.acct, saw, tc.saw)
		}
	}
}

// TestScrapeIdsIgnoreWorkers: a scrape's workers collect names in whatever
// order they are scheduled, and ids are handed out only after they join, so
// the account table and every follower list must be the same at any worker
// count and GOMAXPROCS. Every other user is scraped, so that followers are
// both scraped accounts and new names. The lists must also be the follow
// graph's, and new ids must be handed out in the order the lists first
// name them.
func TestScrapeIdsIgnoreWorkers(t *testing.T) {
	cfg := gen.TinyConfig(2)
	cfg.Instances, cfg.Users = 30, 600
	w := gen.Generate(cfg)
	h, err := New(context.Background(), w, Options{Retries: 2, Backoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	acct := func(u int32) string { return instance.UserName(u) + "@" + w.Instances[w.Users[u].Instance].Domain }
	var accts []string
	var scraped []int32
	for u := int32(0); int(u) < len(w.Users); u += 2 {
		accts, scraped = append(accts, acct(u)), append(scraped, u)
	}
	var ref crawler.ScrapeResult
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 2, 10} {
			prev := runtime.GOMAXPROCS(procs)
			res := (&crawler.FollowerScraper{Client: h.Client, Workers: workers}).Scrape(context.Background(), accts)
			runtime.GOMAXPROCS(prev)
			if ref.Accounts == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("GOMAXPROCS=%d, %d workers: the scrape differs from one worker's at GOMAXPROCS=1", procs, workers)
			}
		}
	}
	if len(ref.Errors) != 0 || !slices.Equal(ref.Accounts[:len(accts)], accts) {
		t.Fatalf("errors %v; the account table does not start with the scraped accounts", ref.Errors)
	}
	next, follows := int32(len(accts)), 0
	for i, u := range scraped {
		var got, want []string
		for _, f := range ref.Followers[i] {
			if f > next {
				t.Fatalf("%s: follower id %d handed out before id %d", accts[i], f, next)
			}
			next = max(next, f+1)
			got = append(got, ref.Accounts[f])
		}
		for _, v := range w.Social.In(u) {
			want = append(want, acct(v))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: scraped followers %v, the graph's %v", accts[i], got, want)
		}
		follows += len(got)
	}
	if int(next) != len(ref.Accounts) || next == int32(len(accts)) || follows < len(accts) {
		t.Fatalf("%d accounts for %d new ids past %d scraped, %d follows: the world exercises little",
			len(ref.Accounts), next-int32(len(accts)), len(accts), follows)
	}
}

// requestHarness is a harness over a small generated world, plus four
// instances made for counting: timelines of 80 and 120 toots by one author,
// who has 40 followers on the one and 80 on the other, and an instance
// that is down.
func requestHarness(t *testing.T) *Harness {
	t.Helper()
	cfg := gen.TinyConfig(3)
	cfg.Instances, cfg.Users = 4, 40
	h, err := New(context.Background(), gen.Generate(cfg), Options{Retries: 2, Backoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{2, 3} {
		domain := fmt.Sprintf("t%d.test", 40*n)
		srv := h.Net.Add(instance.Config{Domain: domain, Open: true})
		if _, err := srv.CreateAccount("alice", false, false, dataset.Day(0)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40*n; i++ {
			if _, err := srv.PostToot(ctx, "alice", fmt.Sprintf("toot %d", i), []string{"tag"}, dataset.Day(0)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40*(n-1); i++ {
			err := srv.Receive(ctx, &federation.Activity{
				Type:   federation.TypeFollow,
				From:   federation.Actor{User: fmt.Sprintf("fan%d", i), Domain: "far.test"},
				Target: federation.Actor{User: "alice", Domain: domain},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	h.Net.Add(instance.Config{Domain: "down.test"}).SetOnline(false)
	return h
}

// Allocations of one more campaign request through the harness's client,
// everything included — the request, net/http's client, the fault and memory
// transports, the handler, the body read, the decode into what the crawler
// keeps — as measured (go1.24). A timeline page keeps nothing per status:
// its id and author index go into a pooled harvest's page, and only a new
// author is a string of its own. A follower page keeps nothing per follower: names
// go into a pooled arena and are interned into one buffer, so what is left
// is the request and the interner's growth.
const (
	probeUpAllocs      = 6
	probeDownAllocs    = 14 // two attempts: the harness retries once
	timelinePageAllocs = 8
	followerPageAllocs = 9
)

// TestCampaignRequestAllocs makes those counts a bound. Each is a
// difference — the same crawler call over one more probe, one more page — so
// what a call costs however much it fetches (its goroutines, its result)
// cancels out, and what is left is the request.
func TestCampaignRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	h := requestHarness(t)
	ctx := context.Background()
	probes := func(domain string, n int) func() {
		mon := &crawler.Monitor{Client: h.Client, Workers: 1, Domains: make([]string, n)}
		for i := range mon.Domains {
			mon.Domains[i] = domain
		}
		return func() {
			if ss := mon.PollOnce(ctx); ss[n-1].Online != (domain != "down.test") {
				t.Fatalf("%s probed online=%v", domain, ss[n-1].Online)
			}
		}
	}
	timeline := func(domain string, toots int) func() {
		tc := &crawler.TootCrawler{Client: h.Client}
		return func() {
			if c := tc.CrawlInstance(ctx, domain); c.Toots != toots || c.Err != nil {
				t.Fatalf("%s: %d toots, err %v", domain, c.Toots, c.Err)
			}
		}
	}
	followers := func(acct string, n int) func() {
		fs := &crawler.FollowerScraper{Client: h.Client}
		return func() {
			if res := fs.Scrape(ctx, []string{acct}); len(res.Followers[0]) != n || len(res.Errors) != 0 {
				t.Fatalf("%s: %d followers, errors %v", acct, len(res.Followers[0]), res.Errors)
			}
		}
	}
	for _, tc := range []struct {
		name        string
		fewer, more func()
		extra       float64 // requests more makes beyond fewer's
		want        float64
	}{
		{"probe of an up instance", probes("t80.test", 1), probes("t80.test", 9), 8, probeUpAllocs},
		{"probe of a down instance", probes("down.test", 1), probes("down.test", 9), 8, probeDownAllocs},
		{"timeline page of 40 statuses", timeline("t80.test", 80), timeline("t120.test", 120), 1, timelinePageAllocs},
		{"follower page of 40 followers", followers("alice@t80.test", 40), followers("alice@t120.test", 80), 1, followerPageAllocs},
	} {
		got := (testing.AllocsPerRun(200, tc.more) - testing.AllocsPerRun(200, tc.fewer)) / tc.extra
		t.Logf("%s: %v allocations", tc.name, got)
		if got > tc.want {
			t.Errorf("%s: %v allocations, measured %v when this was written", tc.name, got, tc.want)
		}
	}
}
