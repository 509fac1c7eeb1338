package simnet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/instance"
	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// exchangeFixture is a small fediverse with one instance per answer the
// handlers give: up.test serves (alice has 90 toots and 50 followers, so
// both paged endpoints have a next page), blocked.test refuses timeline
// crawls, down.test is offline. raw.test is not an instance at all but a
// set of bare handlers, one per http.ResponseWriter rule the exchange has
// to keep. Building it twice gives two identical networks.
func exchangeFixture(t testing.TB) http.Handler {
	t.Helper()
	ctx := context.Background()
	net := instance.NewNetwork()
	up := net.Add(instance.Config{Domain: "up.test", Open: true})
	if _, err := up.CreateAccount("alice", false, false, dataset.Day(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if _, err := up.PostToot(ctx, "alice", fmt.Sprintf("toot %d", i), []string{"tag"}, dataset.Day(0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		err := up.Receive(ctx, &federation.Activity{
			Type:   federation.TypeFollow,
			From:   federation.Actor{User: fmt.Sprintf("fan%d", i), Domain: "far.test"},
			Target: federation.Actor{User: "alice", Domain: "up.test"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	net.Add(instance.Config{Domain: "blocked.test", Open: true, BlocksCrawl: true})
	net.Add(instance.Config{Domain: "down.test"}).SetOnline(false)

	raw := http.NewServeMux()
	raw.HandleFunc("/implicit", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<html><body>sniff me</body></html>"))
	})
	raw.HandleFunc("/string", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "plain words")
	})
	raw.HandleFunc("/twice", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte("first code wins"))
	})
	raw.HandleFunc("/late", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Early", "1")
		w.WriteHeader(http.StatusCreated)
		w.Header().Set("X-Late", "1")
		w.Write([]byte("late headers stay out"))
	})
	raw.HandleFunc("/late-write", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("a"))
		w.Header().Set("X-Late", "1")
		w.Write([]byte("b"))
	})
	raw.HandleFunc("/length", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", " 5 ")
		w.Write([]byte("hello"))
	})
	raw.HandleFunc("/bad-length", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "five")
		w.Write([]byte("hello"))
	})
	raw.HandleFunc("/nothing", func(http.ResponseWriter, *http.Request) {})
	raw.HandleFunc("/headers-only", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Add("X-Multi", "a")
		w.Header().Add("X-Multi", "b")
	})
	raw.HandleFunc("/big", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		chunk := bytes.Repeat([]byte("0123456789abcdef"), 4096)
		for i := 0; i < 2*maxPooledBody/len(chunk); i++ {
			w.Write(chunk)
		}
	})
	raw.HandleFunc("/code", func(w http.ResponseWriter, r *http.Request) {
		var code int
		fmt.Sscan(r.URL.Query().Get("c"), &code)
		w.WriteHeader(code)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Host == "raw.test" {
			raw.ServeHTTP(w, r)
			return
		}
		net.ServeHTTP(w, r)
	})
}

// seen is everything a caller can observe of one response.
type seen struct {
	Req           string
	StatusCode    int
	Status        string
	Proto         string
	Major, Minor  int
	Header        http.Header
	ContentLength int64
	Body          string
}

func observe(t testing.TB, rt http.RoundTripper, method, host, path, body string, hdr ...string) seen {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+host+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Request != req {
		t.Fatalf("%s %s%s: Response.Request is not the request sent", method, host, path)
	}
	return seen{
		Req: method + " " + host + path, StatusCode: resp.StatusCode, Status: resp.Status,
		Proto: resp.Proto, Major: resp.ProtoMajor, Minor: resp.ProtoMinor,
		Header: resp.Header, ContentLength: resp.ContentLength, Body: string(b),
	}
}

// script drives one transport through every kind of answer, in an order
// where later requests depend on earlier replies (the revalidation tag,
// the paging cursor), and returns what it saw.
func script(t *testing.T, rt http.RoundTripper) []seen {
	t.Helper()
	var out []seen
	do := func(method, host, path, body string, hdr ...string) seen {
		s := observe(t, rt, method, host, path, body, hdr...)
		out = append(out, s)
		return s
	}
	probe := do("GET", "up.test", "/api/v1/instance", "")
	do("GET", "up.test", "/api/v1/instance", "", "If-None-Match", probe.Header.Get("Etag")) // 304
	do("GET", "up.test", "/about", "")
	do("GET", "up.test", "/api/v1/instance/peers", "")
	do("GET", "blocked.test", "/api/v1/timelines/public?local=true", "") // 403
	do("GET", "down.test", "/api/v1/instance", "")                       // 503
	do("GET", "up.test", "/api/v2/everything", "")                       // 404
	do("GET", "up.test", "/users/nobody/followers", "")                  // 404
	do("GET", "up.test", "/api/v1/timelines/public?limit=0", "")         // 400
	do("GET", "nowhere.test", "/", "")                                   // 502
	do("GET", "up.test", "/inbox", "")                                   // 405
	do("POST", "up.test", "/inbox", "{")                                 // 400, a decoder's message
	follow, _ := (&federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: "bob", Domain: "b.test"},
		Target: federation.Actor{User: "alice", Domain: "up.test"},
	}).Encode()
	do("POST", "up.test", "/inbox", string(follow)) // 202, and a generation bump
	do("GET", "up.test", "/api/v1/instance", "", "If-None-Match", probe.Header.Get("Etag"))

	pages, cursor := 0, ""
	for {
		page := do("GET", "up.test", "/api/v1/timelines/public?local=true&limit=40"+cursor, "")
		var toots []struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(page.Body), &toots); err != nil {
			t.Fatalf("timeline page %d: %v", pages, err)
		}
		if len(toots) == 0 {
			break
		}
		pages++
		cursor = "&max_id=" + toots[len(toots)-1].ID
	}
	if pages != 3 {
		t.Fatalf("walked %d timeline pages, want 3", pages)
	}
	do("GET", "up.test", "/users/alice/followers?page=1", "")
	do("GET", "up.test", "/users/alice/followers?page=2", "")

	for _, p := range []string{"/implicit", "/string", "/twice", "/late", "/late-write", "/length",
		"/bad-length", "/nothing", "/headers-only", "/big", "/code?c=100", "/code?c=999"} {
		do("GET", "raw.test", p, "")
	}
	return out
}

// TestMemoryTransportMatchesRecorder is the differential oracle: over
// every status the handlers produce and every ResponseWriter rule, the
// exchange must be indistinguishable from httptest.ResponseRecorder.Result.
func TestMemoryTransportMatchesRecorder(t *testing.T) {
	want := script(t, &recorderTransport{Handler: exchangeFixture(t)})
	got := script(t, &MemoryTransport{Handler: exchangeFixture(t)})
	if len(got) != len(want) {
		t.Fatalf("%d responses, reference saw %d", len(got), len(want))
	}
	codes := map[int]bool{}
	for i := range want {
		codes[want[i].StatusCode] = true
		if !reflect.DeepEqual(got[i], want[i]) {
			g, w := got[i], want[i]
			if len(g.Body) > 200 && g.Body != w.Body {
				g.Body, w.Body = fmt.Sprintf("<%d bytes>", len(g.Body)), fmt.Sprintf("<%d bytes>", len(w.Body))
			}
			t.Errorf("response %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
	for _, c := range []int{200, 202, 304, 400, 403, 404, 405, 502, 503} {
		if !codes[c] {
			t.Errorf("the script never produced a %d", c)
		}
	}
}

// TestMemoryTransportRejectsBadCode: a status outside 100–999 is a handler
// bug and panics with net/http's message, as the recorder did.
func TestMemoryTransportRejectsBadCode(t *testing.T) {
	panicOf := func(rt http.RoundTripper, code int) (v any) {
		defer func() { v = recover() }()
		req, _ := http.NewRequest("GET", fmt.Sprintf("http://raw.test/code?c=%d", code), nil)
		rt.RoundTrip(req)
		return nil
	}
	for _, code := range []int{0, 99, 1000, -200} {
		want := panicOf(&recorderTransport{Handler: exchangeFixture(t)}, code)
		got := panicOf(&MemoryTransport{Handler: exchangeFixture(t)}, code)
		if want == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("WriteHeader(%d): panic %v, reference %v", code, got, want)
		}
	}
}

func TestMemoryTransportCancelledRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://up.test/api/v1/instance", nil)
	rt := &MemoryTransport{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("handler ran for a request whose context was already cancelled")
	})}
	if resp, err := rt.RoundTrip(req); !errors.Is(err, context.Canceled) || resp != nil {
		t.Fatalf("resp %v, err %v", resp, err)
	}
}

// churn pushes enough other traffic through rt that any buffer or struct
// the transport recycles has been handed out again.
func churn(t *testing.T, rt http.RoundTripper) {
	t.Helper()
	for i := 0; i < 64; i++ {
		observe(t, rt, "GET", "down.test", "/api/v1/instance", "")
		observe(t, rt, "GET", "up.test", "/about", "")
	}
}

// TestMemoryTransportOwnership pins the rule that makes pooling safe: only
// the body bytes are borrowed. What the caller holds — the Response, its
// Header — is the caller's for as long as it likes, closed or not.
func TestMemoryTransportOwnership(t *testing.T) {
	rt := &MemoryTransport{Handler: exchangeFixture(t)}
	want := observe(t, rt, "GET", "up.test", "/api/v1/instance", "")
	get := func() *http.Response {
		req, _ := http.NewRequest("GET", "http://up.test/api/v1/instance", nil)
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(when string, resp *http.Response) {
		t.Helper()
		if resp.StatusCode != want.StatusCode || resp.Status != want.Status ||
			resp.ContentLength != want.ContentLength || !reflect.DeepEqual(resp.Header, want.Header) {
			t.Fatalf("%s: response now reads %d %q %v", when, resp.StatusCode, resp.Status, resp.Header)
		}
	}

	t.Run("closed", func(t *testing.T) {
		resp := get()
		if b, err := io.ReadAll(resp.Body); err != nil || string(b) != want.Body {
			t.Fatalf("body %q, err %v", b, err)
		}
		for i := 0; i < 3; i++ {
			if err := resp.Body.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
		if n, err := resp.Body.Read(make([]byte, 8)); n != 0 || err != http.ErrBodyReadAfterClose {
			t.Fatalf("Read after Close = %d, %v", n, err)
		}
		churn(t, rt)
		check("after Close and 128 later requests", resp)
		// A Close long after the buffer went back must not take it back
		// from whoever holds it now.
		held := get()
		resp.Body.Close()
		if b, _ := io.ReadAll(held.Body); string(b) != want.Body {
			t.Fatalf("a stale Close disturbed a live body: %q", b)
		}
		held.Body.Close()
	})

	t.Run("never closed", func(t *testing.T) {
		resp := get()
		churn(t, rt)
		check("unclosed, after 128 later requests", resp)
		if b, err := io.ReadAll(resp.Body); err != nil || string(b) != want.Body {
			t.Fatalf("unclosed body read late: %q, err %v", b, err)
		}
		// Abandoned here on purpose; everything after must be unharmed.
		if got := observe(t, rt, "GET", "up.test", "/api/v1/instance", ""); !reflect.DeepEqual(got, want) {
			t.Fatalf("a response after an abandoned one: %+v", got)
		}
	})

	t.Run("half read", func(t *testing.T) {
		resp := get()
		head := make([]byte, 10)
		if _, err := io.ReadFull(resp.Body, head); err != nil {
			t.Fatal(err)
		}
		churn(t, rt)
		rest, err := io.ReadAll(resp.Body)
		if err != nil || string(head)+string(rest) != want.Body {
			t.Fatalf("body read in two halves around other traffic: %q + %q, err %v", head, rest, err)
		}
		resp.Body.Close()
	})

	t.Run("oversized body is not pooled", func(t *testing.T) {
		big := observe(t, rt, "GET", "raw.test", "/big", "")
		if len(big.Body) != 2*maxPooledBody {
			t.Fatalf("big body is %d bytes", len(big.Body))
		}
		for i := 0; i < 8; i++ {
			if bp := bodyPool.Get().(*[]byte); cap(*bp) > maxPooledBody {
				t.Fatalf("the pool holds a %d-byte buffer", cap(*bp))
			}
		}
	})
}

// TestFaultTransportOverExchange: the chaos layer reads and closes the
// inner body, then passes the same *http.Response on with a damaged one.
// Status and headers must survive that hand-off while other requests
// recycle the buffer, and the hardened client must still heal every
// payload fault.
func TestFaultTransportOverExchange(t *testing.T) {
	domains := []string{"up.test"}
	for _, kind := range []sim.FaultKind{sim.FaultTruncate, sim.FaultCorrupt, sim.FaultReset, sim.FaultFlap} {
		t.Run(kind.String(), func(t *testing.T) {
			mem := &MemoryTransport{Handler: exchangeFixture(t)}
			clk := vclock.NewElastic(dataset.Day(0))
			ft := NewFaultTransport(mem, clk)
			ft.Install(&sim.FaultSet{Slots: 1, Faults: [][]sim.Fault{
				{{Kind: kind, Start: 0, End: 1, Hits: 2}},
			}}, domains)
			ft.SetSlotSource(func() int { return 0 })
			clean := observe(t, mem, "GET", "up.test", "/api/v1/instance", "")

			req, _ := http.NewRequest("GET", "http://up.test/api/v1/instance", nil)
			bitten, err := ft.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			churn(t, mem)
			if bitten.StatusCode != 200 || bitten.Status != clean.Status || !reflect.DeepEqual(bitten.Header, clean.Header) {
				t.Fatalf("handed-on response reads %d %q %v", bitten.StatusCode, bitten.Status, bitten.Header)
			}
			damaged, rerr := io.ReadAll(bitten.Body)
			bitten.Body.Close()
			if rerr == nil && string(damaged) == clean.Body {
				t.Fatal("the fault did not bite")
			}

			cli := &crawler.Client{HTTP: &http.Client{Transport: ft}, Retries: 4, Clock: clk}
			var info wire.InstanceView
			body, err := cli.GetChecked(context.Background(), "up.test", "/api/v1/instance", nil, func(b []byte) error {
				info = wire.InstanceView{}
				return wire.ScanInstanceInfo(b, &info)
			})
			if err != nil || string(body) != clean.Body || info.Stats.StatusCount != 90 {
				t.Fatalf("probe did not heal: %q, err %v", body, err)
			}
			page := observe(t, mem, "GET", "up.test", "/users/alice/followers?page=1", "")
			body, err = cli.GetChecked(context.Background(), "up.test", "/users/alice/followers?page=1", nil, wire.FollowerPageComplete)
			if err != nil || string(body) != page.Body {
				t.Fatalf("follower page did not heal: %d bytes, err %v", len(body), err)
			}
		})
	}
}

// TestMemoryTransportConcurrent: eight goroutines push mixed requests
// through one transport, leaving some bodies half read and some unclosed,
// and every body that is read must hash to what the reference served.
// Under -race this is the test that a pooled buffer never has two owners.
func TestMemoryTransportConcurrent(t *testing.T) {
	type target struct{ host, path string }
	targets := []target{
		{"up.test", "/api/v1/instance"},
		{"up.test", "/api/v1/timelines/public?local=true&limit=40"},
		{"up.test", "/users/alice/followers?page=1"},
		{"up.test", "/about"},
		{"down.test", "/api/v1/instance"},
		{"blocked.test", "/api/v1/timelines/public"},
		{"up.test", "/api/v2/everything"},
	}
	hash := func(b []byte) uint64 { h := fnv.New64a(); h.Write(b); return h.Sum64() }
	ref := &recorderTransport{Handler: exchangeFixture(t)}
	want := make([]seen, len(targets))
	sums := make([]uint64, len(targets))
	for i, tg := range targets {
		want[i] = observe(t, ref, "GET", tg.host, tg.path, "")
		sums[i] = hash([]byte(want[i].Body))
	}

	rt := &MemoryTransport{Handler: exchangeFixture(t)}
	const goroutines, each = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 8192)
			for k := 0; k < each; k++ {
				i := (g*7 + k*3 + k/5) % len(targets)
				req, err := http.NewRequest("GET", "http://"+targets[i].host+targets[i].path, nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := rt.RoundTrip(req)
				if err != nil {
					t.Error(err)
					return
				}
				switch k % 16 {
				case 3: // abandoned: neither read nor closed
					continue
				case 7: // closed unread
					resp.Body.Close()
					continue
				}
				w := bytes.NewBuffer(buf[:0])
				if _, err := w.ReadFrom(resp.Body); err != nil {
					t.Error(err)
					return
				}
				if k%16 != 11 { // 11: read but left open
					resp.Body.Close()
				}
				if resp.StatusCode != want[i].StatusCode || hash(w.Bytes()) != sums[i] ||
					!reflect.DeepEqual(resp.Header, want[i].Header) {
					t.Errorf("goroutine %d request %d (%s%s): status %d, %d body bytes, headers %v",
						g, k, targets[i].host, targets[i].path, resp.StatusCode, w.Len(), resp.Header)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func probeClient(tb testing.TB) *crawler.Client {
	return &crawler.Client{HTTP: &http.Client{Transport: &MemoryTransport{Handler: exchangeFixture(tb)}}, Retries: 1}
}

// TestProbeAllocBudget pins what one probe allocates end to end — request
// construction, http.Client, the exchange, the handler, the body read — so
// a per-request cost cannot creep back unnoticed. The budgets are the
// measured counts plus two.
func TestProbeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cli := probeClient(t)
	ctx := context.Background()
	for _, tc := range []struct {
		domain string
		budget float64
	}{
		{"up.test", probeAllocsOnline + 2},
		{"down.test", probeAllocsOffline + 2},
	} {
		got := testing.AllocsPerRun(500, func() { cli.GetChecked(ctx, tc.domain, "/api/v1/instance", nil, nil) })
		t.Logf("%s: %.0f allocations a probe", tc.domain, got)
		if got > tc.budget {
			t.Errorf("%s: a probe allocates %.0f times, budget %.0f", tc.domain, got, tc.budget)
		}
	}
}

// Allocations of one Client.Get over MemoryTransport, as measured (go1.24).
const (
	probeAllocsOnline  = 12
	probeAllocsOffline = 8
)

func BenchmarkProbeExchange(b *testing.B) {
	cli := probeClient(b)
	ctx := context.Background()
	for _, domain := range []string{"up.test", "down.test"} {
		b.Run(domain, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cli.GetChecked(ctx, domain, "/api/v1/instance", nil, nil)
			}
		})
	}
}
