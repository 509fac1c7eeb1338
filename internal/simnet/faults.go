package simnet

import (
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// FaultTransport is the chaos layer: an http.RoundTripper that wraps the
// in-memory transport and injects byzantine faults scripted by a
// sim.FaultSet — hangs, mid-body resets, truncation, byte corruption, 5xx
// storms, 429 rate limiting and flapping — under virtual time. With no
// schedule installed it is a pure passthrough, so the harness always wires
// it in.
//
// Fault hits are counted per (instance, slot, endpoint class): a transient
// fault with Hits=2 bites the first two probe requests of a slot and the
// first two timeline requests, independently. The class split is what
// makes transient schedules convergable regardless of request
// interleaving — the probe phase can never drain the hits the crawl phase
// was scheduled to face, so every phase sees the same fault pressure in
// every run.
type FaultTransport struct {
	inner http.RoundTripper
	clk   vclock.Clock

	mu     sync.Mutex
	fs     *sim.FaultSet
	index  map[string]int // domain -> schedule row
	slotFn func() int     // current campaign slot (nil or -1 = no faults)
	hits   map[faultKey]int
	flap   map[faultKey]int // per-(instance,slot,class) flap parity
}

// faultKey scopes hit counting: one budget per instance, slot and endpoint
// class.
type faultKey struct {
	inst  int
	slot  int
	class uint8
}

// endpointClass buckets a request path into the crawl phase it belongs to.
func endpointClass(path string) uint8 {
	switch {
	case path == "/api/v1/instance":
		return 0 // probe
	case strings.HasPrefix(path, "/api/v1/instance/peers"):
		return 1 // discovery
	case strings.HasPrefix(path, "/api/v1/timelines/"):
		return 2 // toot crawl
	case strings.HasPrefix(path, "/users/"):
		return 3 // follower scrape
	}
	return 4
}

// NewFaultTransport wraps inner with the chaos layer on the given clock.
func NewFaultTransport(inner http.RoundTripper, clk vclock.Clock) *FaultTransport {
	return &FaultTransport{inner: inner, clk: vclock.OrSystem(clk)}
}

// Install arms the transport with a fault schedule; domains[i] is the host
// whose faults fs.Faults[i] scripts. nil fs disarms it.
func (t *FaultTransport) Install(fs *sim.FaultSet, domains []string) {
	if fs != nil && fs.Len() != len(domains) {
		panic("simnet: fault schedule/domain count mismatch")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fs = fs
	t.index = nil
	t.hits = make(map[faultKey]int)
	t.flap = make(map[faultKey]int)
	if fs != nil {
		t.index = make(map[string]int, len(domains))
		for i, d := range domains {
			t.index[d] = i
		}
	}
}

// SetSlotSource tells the transport where the campaign currently is; the
// canonical source is Injector.Slot, wired by Injector.BindFaults.
func (t *FaultTransport) SetSlotSource(fn func() int) {
	t.mu.Lock()
	t.slotFn = fn
	t.mu.Unlock()
}

// pick decides, under the lock, whether this request is bitten and by what.
func (t *FaultTransport) pick(host, path string) (sim.Fault, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fs == nil || t.slotFn == nil {
		return sim.Fault{}, false
	}
	slot := t.slotFn()
	if slot < 0 {
		return sim.Fault{}, false
	}
	i, ok := t.index[host]
	if !ok {
		return sim.Fault{}, false
	}
	f, ok := t.fs.At(i, slot)
	if !ok {
		return sim.Fault{}, false
	}
	key := faultKey{inst: i, slot: slot, class: endpointClass(path)}
	if f.Kind == sim.FaultFlap {
		// Flap alternates fail/pass per request — rapid up/down cycling —
		// but still spends the same hit budget as every other transient
		// fault. The cap is what keeps the convergence guarantee under
		// concurrency: without it, interleaved callers could hand one
		// caller every even-parity slot and bite all of its retries.
		n := t.flap[key]
		t.flap[key] = n + 1
		if n%2 != 0 || t.hits[key] >= f.Hits {
			return sim.Fault{}, false
		}
		t.hits[key]++
	} else {
		if !f.Persistent() && t.hits[key] >= f.Hits {
			return sim.Fault{}, false
		}
		t.hits[key]++
	}
	return f, true
}

// hangError is what a hung request surfaces after its deadline: a
// net.Error timeout, like a real stalled connection. The message is
// deterministic (no addresses, no durations measured from wall time).
type hangError struct{ d time.Duration }

func (e *hangError) Error() string {
	return "chaos: request hung until deadline (" + e.d.String() + ")"
}
func (e *hangError) Timeout() bool   { return true }
func (e *hangError) Temporary() bool { return true }

var _ net.Error = (*hangError)(nil)

// errConnReset mimics a TCP reset surfacing mid-read.
type connResetError struct{}

func (connResetError) Error() string   { return "read: connection reset by peer" }
func (connResetError) Timeout() bool   { return false }
func (connResetError) Temporary() bool { return true }

// defaultHangStall bounds a hang for clients that set no per-request
// deadline; without it a hang against an undisciplined client would block
// a campaign forever.
const defaultHangStall = 30 * time.Second

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, bite := t.pick(req.Host, req.URL.Path)
	if !bite {
		return t.inner.RoundTrip(req)
	}
	switch f.Kind {
	case sim.FaultHang:
		d := crawler.RequestDeadline(req.Context())
		if d <= 0 {
			d = defaultHangStall
		}
		// The stall runs on the sim clock: free wall time, real virtual
		// time — a hang costs the campaign exactly one request deadline.
		if err := t.clk.Sleep(req.Context(), d); err != nil {
			return nil, err
		}
		return nil, &hangError{d: d}
	case sim.Fault5xx:
		return syntheticResponse(req, http.StatusInternalServerError, nil,
			"chaos: injected 5xx storm\n"), nil
	case sim.Fault429:
		ra := f.RetryAfter
		if ra <= 0 {
			ra = 1
		}
		// Alternate the two RFC 7231 header forms so both client parsers
		// stay exercised; the parity comes from the deterministic hit
		// counter via RetryAfter so it needs no extra state.
		hdr := make(http.Header)
		if t.headerParity(req) {
			hdr.Set("Retry-After", t.clk.Now().Add(time.Duration(ra)*time.Second).UTC().Format(http.TimeFormat))
		} else {
			hdr.Set("Retry-After", strconv.Itoa(ra))
		}
		return syntheticResponse(req, http.StatusTooManyRequests, hdr,
			"chaos: rate limited\n"), nil
	}

	// The payload faults (reset, truncate, corrupt, and flap's failing
	// half) need a real response to damage. Errors and non-2xx answers
	// pass through untouched: there is no payload to fault.
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp.StatusCode/100 != 2 {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	switch f.Kind {
	case sim.FaultCorrupt:
		if strings.HasPrefix(req.URL.Path, "/api/") {
			// JSON payloads: flipping the first byte guarantees a decode
			// failure at offset 0 while keeping the declared length intact.
			if len(body) > 0 {
				body[0] ^= 0xff
			}
			resp.Body = io.NopCloser(strings.NewReader(string(body)))
			return resp, nil
		}
		// Unframed HTML has no checksum and no length discipline a client
		// could verify against arbitrary garbling, so corruption on these
		// pages degrades to a torn read — the strongest *detectable*
		// damage. See DESIGN.md "Chaos and the hardened client".
		fallthrough
	case sim.FaultTruncate:
		resp.Body = &tornBody{data: body[:len(body)/2], err: io.ErrUnexpectedEOF}
	case sim.FaultReset, sim.FaultFlap:
		resp.Body = &tornBody{data: body[:len(body)/2], err: connResetError{}}
	}
	return resp, nil
}

// headerParity gives Fault429 a deterministic alternation source: the hit
// counter just incremented for this request, so its parity alternates per
// bitten request within the (instance, slot, class) scope.
func (t *FaultTransport) headerParity(req *http.Request) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index[req.Host]
	if !ok || t.slotFn == nil {
		return false
	}
	key := faultKey{inst: i, slot: t.slotFn(), class: endpointClass(req.URL.Path)}
	return t.hits[key]%2 == 0
}

// syntheticResponse builds a fault response that never touched the server.
func syntheticResponse(req *http.Request, code int, hdr http.Header, body string) *http.Response {
	if hdr == nil {
		hdr = make(http.Header)
	}
	hdr.Set("Content-Type", "text/plain; charset=utf-8")
	return &http.Response{
		StatusCode:    code,
		Status:        http.StatusText(code),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        hdr,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// tornBody yields its data then fails — a connection that died mid-body.
type tornBody struct {
	data []byte
	off  int
	err  error
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.off < len(b.data) {
		n := copy(p, b.data[b.off:])
		b.off += n
		return n, nil
	}
	return 0, b.err
}

func (b *tornBody) Close() error { return nil }
