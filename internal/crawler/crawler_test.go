package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestHostLimiter(t *testing.T) {
	clk := vclock.NewSim(time.Unix(0, 0))
	l := NewHostLimiterClock(100, 2, clk)
	// Burst of 2 is free.
	if d := l.reserve("x"); d != 0 {
		t.Fatalf("first reserve delayed %v", d)
	}
	if d := l.reserve("x"); d != 0 {
		t.Fatalf("second reserve delayed %v", d)
	}
	// Third must wait ~10ms at 100 rps.
	if d := l.reserve("x"); d < 5*time.Millisecond || d > 15*time.Millisecond {
		t.Fatalf("third reserve delayed %v, want ≈10ms", d)
	}
	// Separate hosts have separate buckets.
	if d := l.reserve("y"); d != 0 {
		t.Fatalf("other host delayed %v", d)
	}
	// Refill after virtual time passes.
	clk.Advance(time.Second)
	if d := l.reserve("x"); d != 0 {
		t.Fatalf("after refill delayed %v", d)
	}
}

func TestHostLimiterWaitsInVirtualTime(t *testing.T) {
	// A limiter throttled to 1 rps must fit 100 requests into zero wall
	// sleeps when its clock is an elastic Sim.
	clk := vclock.NewElastic(time.Unix(0, 0))
	l := NewHostLimiterClock(1, 1, clk)
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := l.Wait(context.Background(), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("100 rate-limited waits took %v of wall time", wall)
	}
	// Virtual time must have stretched to cover ~99 seconds of throttling.
	if got := clk.Now().Sub(time.Unix(0, 0)); got < 90*time.Second {
		t.Fatalf("virtual time advanced only %v", got)
	}
}

func TestHostLimiterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHostLimiter(0, 1)
}

func TestHostLimiterWaitCancel(t *testing.T) {
	l := NewHostLimiter(0.0001, 1)
	if err := l.Wait(context.Background(), "x"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

func TestClientRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := &Client{
		Resolve: func(string) string { return srv.URL },
		Retries: 5,
		Backoff: time.Millisecond,
	}
	body, err := c.GetBuffered(context.Background(), "x.test", "/thing", nil)
	if err != nil || string(body) != `{"ok":true}` {
		t.Fatalf("err=%v body=%q", err, body)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestClientBackoffRunsOnInjectedClock(t *testing.T) {
	// A server that always fails drives the client through its full
	// exponential backoff schedule; with an elastic Sim clock the retries
	// must consume virtual — not wall — time.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	clk := vclock.NewElastic(time.Unix(0, 0))
	c := &Client{
		Resolve: func(string) string { return srv.URL },
		Retries: 5,
		Backoff: 10 * time.Second, // would be 150s of real sleeping
		Clock:   clk,
	}
	start := time.Now()
	_, err := c.Get(context.Background(), "x.test", "/")
	if err == nil {
		t.Fatal("expected failure")
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("backoff slept %v of wall time", wall)
	}
	// 4 backoffs: 10+20+40+80 = 150s of virtual time.
	if got := clk.Now().Sub(time.Unix(0, 0)); got != 150*time.Second {
		t.Fatalf("virtual backoff time = %v, want 150s", got)
	}
	if clk.SleepCount() != 4 {
		t.Fatalf("sleeps = %d, want 4", clk.SleepCount())
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "forbidden", http.StatusForbidden)
	}))
	defer srv.Close()
	c := &Client{Resolve: func(string) string { return srv.URL }, Retries: 5, Backoff: time.Millisecond}
	_, err := c.Get(context.Background(), "x.test", "/blocked")
	var se *StatusError
	if !asStatusError(err, &se) || se.Code != 403 {
		t.Fatalf("err = %v, want 403 StatusError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (403 is not retryable)", calls.Load())
	}
	if se.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestClientContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "always failing", http.StatusBadGateway)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{Resolve: func(string) string { return srv.URL }, Retries: 10, Backoff: 10 * time.Millisecond}
	if _, err := c.Get(ctx, "x.test", "/"); err == nil {
		t.Fatal("expected context error")
	}
}

// TestForEach pins the contract the four crawl loops rely on: every index
// runs exactly once, errs comes back in index order, no more than workers
// calls are in flight — for workers below, at and above n — and fn sees
// the caller's context itself, not a derived one.
func TestForEach(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "mine")
	for _, tc := range []struct{ n, workers int }{
		{100, 7}, {100, 1}, {3, 16}, {1, 1}, {0, 4}, {50, 0}, {50, -3},
	} {
		limit := int64(max(tc.workers, 1))
		runs := make([]atomic.Int32, tc.n)
		var inFlight, peak atomic.Int64
		errs := forEach(ctx, tc.n, tc.workers, func(got context.Context, i int) error {
			if got != ctx {
				t.Errorf("fn saw %v, want the caller's context", got)
			}
			cur := inFlight.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			runs[i].Add(1)
			runtime.Gosched() // let the other workers overlap this call
			inFlight.Add(-1)
			if i%13 == 0 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if len(errs) != tc.n {
			t.Fatalf("n=%d workers=%d: %d errs", tc.n, tc.workers, len(errs))
		}
		for i, err := range errs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: item %d ran %d times", tc.n, tc.workers, i, got)
			}
			if want := i%13 == 0; (err != nil) != want || want && err.Error() != fmt.Sprintf("item %d", i) {
				t.Fatalf("n=%d workers=%d: errs[%d] = %v", tc.n, tc.workers, i, err)
			}
		}
		if p := peak.Load(); p > limit {
			t.Fatalf("n=%d workers=%d: %d calls in flight", tc.n, tc.workers, p)
		}
	}
}

func TestForEachCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := forEach(ctx, 3, 2, func(context.Context, int) error {
		t.Error("fn ran under a cancelled context")
		return nil
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

// TestForEachCancelMidRun cancels from inside the k-th call. Items already
// running finish with their own result; every item claimed afterwards is
// marked with ctx.Err() and never runs.
func TestForEachCancelMidRun(t *testing.T) {
	const n, workers, cancelAt = 200, 4, 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make([]atomic.Bool, n)
	var calls atomic.Int64
	errs := forEach(ctx, n, workers, func(_ context.Context, i int) error {
		ran[i].Store(true)
		if calls.Add(1) == cancelAt {
			cancel()
		}
		return nil
	})
	// Each of the other workers can have claimed one more item before it
	// could observe the cancellation.
	if c := calls.Load(); c < cancelAt || c >= cancelAt+workers {
		t.Fatalf("%d calls ran, want [%d, %d)", c, cancelAt, cancelAt+workers)
	}
	for i, err := range errs {
		switch {
		case ran[i].Load() && err != nil:
			t.Fatalf("item %d ran and still got %v", i, err)
		case !ran[i].Load() && !errors.Is(err, context.Canceled):
			t.Fatalf("item %d did not run, errs = %v", i, err)
		}
	}
}

// roundTripFunc serves a Client's requests without a socket.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestPollOnceCancelled: forEach does not run an index claimed after the
// context is cancelled, and a round used to return the zero Sample for
// each — no domain, no time — which ProbeLog then filed under a domain
// named "". An instance nobody probed must read as offline at the round's
// time, whether the round was cancelled before it began or half-way.
func TestPollOnceCancelled(t *testing.T) {
	var domains []string
	for i := 0; i < 40; i++ {
		domains = append(domains, fmt.Sprintf("d%d.test", i))
	}
	at := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	for _, cancelAt := range []int64{0, 1, 13} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		cli := &Client{Retries: 1, HTTP: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if calls.Add(1) == cancelAt {
				cancel()
			}
			rec := httptest.NewRecorder()
			rec.WriteString(`{"uri":"x","version":"2.4.0","registrations":true,"stats":{"user_count":3,"status_count":9,"domain_count":1}}`)
			return rec.Result(), nil
		})}}
		if cancelAt == 0 {
			cancel()
		}
		mon := &Monitor{Client: cli, Domains: domains, Workers: 3, Now: func() time.Time { return at }}
		samples := mon.PollOnce(ctx)
		cancel()
		if len(samples) != len(domains) {
			t.Fatalf("cancel at %d: %d samples for %d domains", cancelAt, len(samples), len(domains))
		}
		online := 0
		for i, s := range samples {
			if s.Domain != domains[i] || s.At != at {
				t.Fatalf("cancel at %d: sample %d is %+v, want domain %q at %v", cancelAt, i, s, domains[i], at)
			}
			if s.Online {
				online++
			}
		}
		// Every probe that was sent was answered; each of the other workers
		// can have sent one more before it could observe the cancellation.
		if c := calls.Load(); int64(online) != c || c < cancelAt || c >= cancelAt+int64(mon.Workers) {
			t.Fatalf("cancel at %d: %d requests made, %d samples online", cancelAt, c, online)
		}
		log := NewProbeLog()
		log.Add(samples)
		if got := log.Domains(); !reflect.DeepEqual(got, domains) {
			t.Fatalf("cancel at %d: the log holds domains %q", cancelAt, got)
		}
	}
}

// TestPollOnceVersions: a Monitor keeps one version string per domain and
// hands it to every sample that reports the same; a sample must still carry
// what its own probe read, escapes decoded, when that changes.
func TestPollOnceVersions(t *testing.T) {
	var round atomic.Int32
	cli := &Client{Retries: 1, HTTP: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		switch v := [...]string{`"2.4.0"`, `"2.4.0"`, `"2.4.\u0031 (compatible; Pleroma)"`, `null`, `"2.4.0"`}[round.Load()]; req.Host {
		case "a.test":
			rec.WriteString(`{"version":` + v + `}`)
		default:
			rec.WriteString(`{"version":"b","stats":{"user_count":` + strconv.Itoa(int(round.Load())) + `}}`)
		}
		return rec.Result(), nil
	})}}
	mon := &Monitor{Client: cli, Domains: []string{"a.test", "b.test"}, Workers: 2}
	for r, want := range []string{"2.4.0", "2.4.0", "2.4.1 (compatible; Pleroma)", "", "2.4.0"} {
		round.Store(int32(r))
		ss := mon.PollOnce(context.Background())
		if !ss[0].Online || ss[0].Version != want || ss[1].Version != "b" || ss[1].Users != r {
			t.Fatalf("round %d: samples %+v, want a.test at version %q", r, ss, want)
		}
	}
}

func TestSplitAcct(t *testing.T) {
	u, d, ok := SplitAcct("alice@x.test")
	if !ok || u != "alice" || d != "x.test" {
		t.Fatalf("got %q %q %v", u, d, ok)
	}
	for _, bad := range []string{"", "alice", "@x", "alice@"} {
		if _, _, ok := SplitAcct(bad); ok {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestDecodeStatus(t *testing.T) {
	v := wire.StatusView{ID: []byte("17"), CreatedAt: []byte("2018-05-01T10:00:00.000Z"), Content: []byte("hi")}
	rec, err := tootOf(&v)
	if err != nil || rec.ID != 17 || rec.Content != "hi" || rec.Acct != "" {
		t.Fatalf("rec=%+v err=%v", rec, err)
	}
	// RFC3339 fallback.
	v.CreatedAt = []byte("2018-05-01T10:00:00Z")
	if _, err := tootOf(&v); err != nil {
		t.Fatalf("RFC3339 fallback failed: %v", err)
	}
	v.CreatedAt = []byte("yesterday")
	if _, err := tootOf(&v); err == nil {
		t.Fatal("bad timestamp accepted")
	}
	v.CreatedAt = []byte("2018-05-01T10:00:00Z")
	v.ID = []byte("xyz")
	if _, err := tootOf(&v); err == nil {
		t.Fatal("bad id accepted")
	}
}

func TestFollowerPageParsing(t *testing.T) {
	html := `<html><body><ul>
<li><a class="follower" href="https://b.test/users/u7">u7@b.test</a></li>
<li><a class="follower" href="https://c.test/users/u9">u9@c.test</a></li>
</ul><a rel="next" href="/users/alice/followers?page=2">next</a></body></html>`
	ms := followerLink.FindAllStringSubmatch(html, -1)
	if len(ms) != 2 || ms[0][1] != "b.test" || ms[0][2] != "u7" {
		t.Fatalf("matches = %v", ms)
	}
	if nextLink.FindStringSubmatch(html) == nil {
		t.Fatal("next link not found")
	}
	if nextLink.FindStringSubmatch("<html>no next</html>") != nil {
		t.Fatal("false positive next link")
	}
}

func TestAccountIndex(t *testing.T) {
	idx, names := AccountIndex([]Edge{
		{From: "b@y", To: "a@x"},
		{From: "c@z", To: "a@x"},
	})
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	// Sorted order: a@x, b@y, c@z.
	if idx["a@x"] != 0 || idx["b@y"] != 1 || idx["c@z"] != 2 {
		t.Fatalf("idx = %v", idx)
	}
}
