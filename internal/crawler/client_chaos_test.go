package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// The tests below pin the hardened fetch path's behaviour under the faults
// the chaos transport injects: rate-limit pushback (Retry-After in both RFC
// 7231 forms), hostile pushback (the cap), and torn reads (a connection
// reset after the client saw the declared Content-Length).

func retryAfterClient(srv *httptest.Server, retries int) (*Client, *vclock.Sim) {
	clk := vclock.NewElastic(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	return &Client{
		Resolve: func(string) string { return srv.URL },
		Retries: retries,
		Backoff: time.Millisecond,
		Clock:   clk,
	}, clk
}

func TestClientHonoursRetryAfterSeconds(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "throttled", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c, clk := retryAfterClient(srv, 5)
	start := clk.Now()
	if _, err := c.GetChecked(context.Background(), "x.test", "/thing", nil, nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	// Two throttled attempts, 7 virtual seconds each — the 1ms backoff was
	// overridden, not added to.
	if got := clk.Now().Sub(start); got != 14*time.Second {
		t.Fatalf("virtual wait = %v, want 14s", got)
	}
}

func TestClientHonoursRetryAfterHTTPDate(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			// The HTTP-date form, evaluated against the *injected* clock.
			w.Header().Set("Retry-After", start.Add(40*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, "maintenance", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c, clk := retryAfterClient(srv, 3)
	if _, err := c.GetChecked(context.Background(), "x.test", "/thing", nil, nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
	if got := clk.Now().Sub(start); got != 40*time.Second {
		t.Fatalf("virtual wait = %v, want 40s", got)
	}
}

func TestClientCapsRetryAfter(t *testing.T) {
	// A hostile hour-long header stalls one capped step, no more; so do the
	// two whose seconds overflow a Duration: one wraps to 290ms, the other
	// to a negative wait.
	for _, header := range []string{strconv.Itoa(3600), "18446744074", "9223372037"} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if calls.Add(1) == 1 {
				w.Header().Set("Retry-After", header)
				http.Error(w, "go away", http.StatusTooManyRequests)
				return
			}
			w.Write([]byte(`{"ok":true}`))
		}))
		c, clk := retryAfterClient(srv, 3)
		start := clk.Now()
		if _, err := c.GetChecked(context.Background(), "x.test", "/thing", nil, nil); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if got := clk.Now().Sub(start); got != maxRetryAfter {
			t.Fatalf("Retry-After: %s: virtual wait = %v, want the %v cap", header, got, maxRetryAfter)
		}
	}
}

func TestClientRetryAfterNeverAddsAttempts(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "throttled", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c, _ := retryAfterClient(srv, 3)
	_, err := c.GetChecked(context.Background(), "x.test", "/thing", nil, nil)
	var se *StatusError
	if !asStatusError(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want a 429 StatusError", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want exactly Retries=3 — Retry-After must not add attempts", calls.Load())
	}
}

func TestClientRetriesMidBodyReset(t *testing.T) {
	// The server advertises a Content-Length and then tears the connection
	// down mid-body: the client surfaces io.ErrUnexpectedEOF from the body
	// read, which must be retried like any other transient transport fault.
	const full = `{"title":"mid-body reset survivor"}`
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Length", strconv.Itoa(len(full)))
			w.Write([]byte(full[:len(full)/2]))
			return // handler exits short of Content-Length: connection killed
		}
		w.Write([]byte(full))
	}))
	defer srv.Close()
	c, _ := retryAfterClient(srv, 3)
	body, err := c.GetChecked(context.Background(), "x.test", "/api/v1/instance", nil, nil)
	if err != nil {
		t.Fatalf("short-body read did not heal: %v", err)
	}
	if string(body) != full {
		t.Fatalf("body = %q, want %q", body, full)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (one torn, one clean)", calls.Load())
	}
}
