// Package crawler implements the paper's measurement toolkit (§3):
//
//   - Monitor: the mnm.social-style prober that polls every instance's
//     /api/v1/instance endpoint on a fixed cadence and records availability
//     and metadata counters;
//   - TootCrawler: the multi-worker harvester that pages through instance
//     timelines ("we wrote a multi-threaded crawler ... iterating over the
//     entire history of toots"), with per-host rate limiting so instances
//     are not overwhelmed; its workers lease domains, so a worker that dies
//     mid-domain hands the domain on (lease.go);
//   - FollowerScraper: the follower-list collector that pages through the
//     HTML follower pages and rebuilds the social graph;
//   - Discoverer: snowball instance discovery over /api/v1/instance/peers.
//
// All components share a Client that can point real domains at a local
// test server, a token-bucket rate limiter, and bounded retry with
// exponential backoff. Everything honours context cancellation.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Client issues HTTP requests to instances. Resolve maps a domain to a base
// URL (e.g. the address of an in-process test network); when nil the domain
// is contacted directly over http.
type Client struct {
	HTTP      *http.Client
	Resolve   func(domain string) string
	UserAgent string

	// Limiter, when set, bounds the per-host request rate.
	Limiter *HostLimiter
	// Retries is the number of attempts for retryable failures (0 = 3).
	Retries int
	// Backoff is the base backoff between attempts (0 = 50ms).
	Backoff time.Duration
	// Clock drives the retry backoff (nil = the system clock). Injecting a
	// vclock.Sim makes retry storms run in virtual time with no real sleeps.
	Clock vclock.Clock
	// RequestTimeout, when positive, bounds each individual attempt: a
	// hung server costs one deadline, not the whole crawl. The deadline is
	// also advertised on the request context (see RequestDeadline) so
	// virtual-time transports can charge it to the sim clock.
	RequestTimeout time.Duration
	// Breaker, when set, gates every request through a per-host circuit
	// breaker shared across components; hosts that exhaust its failure
	// budget are quarantined and fail fast with QuarantinedError.
	Breaker *HostBreaker
}

// StatusError reports a non-2xx response.
type StatusError struct {
	Domain string
	Path   string
	Code   int
	// RetryAfter is the parsed Retry-After header on 429/503 responses
	// (zero when absent or unparseable). The retry loop waits this long
	// instead of the exponential backoff; it never adds attempts.
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("crawler: %s%s: status %d", e.Domain, e.Path, e.Code)
}

// IntegrityError reports a 2xx response whose payload failed the caller's
// integrity check (undecodable JSON, truncated follower page). The fetch
// layer treats it like a torn read: retryable, because byte corruption and
// truncation are transient transport faults until proven otherwise.
type IntegrityError struct {
	Domain string
	Path   string
	Err    error
}

// Error implements error.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("crawler: %s%s: bad payload: %v", e.Domain, e.Path, e.Err)
}

// Unwrap exposes the underlying decode error.
func (e *IntegrityError) Unwrap() error { return e.Err }

// retryable reports whether a fetch error is worth another attempt.
func retryable(err error) bool {
	var se *StatusError
	if asStatusError(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code/100 == 5
	}
	var qe *QuarantinedError
	if errors.As(err, &qe) {
		// The breaker has given up on the host; retrying is the one thing
		// quarantine exists to prevent.
		return false
	}
	// Short bodies (a connection torn down after the client saw the
	// declared Content-Length) surface as io.ErrUnexpectedEOF rather than
	// a transport error; they are as transient as a mid-handshake reset.
	// Integrity failures (corrupt payload behind a 2xx) are the
	// application-level twin. Everything else at this point is a
	// transport-level failure (refused, reset, timeout, per-attempt
	// deadline) — all retryable. Outer-context cancellation never reaches
	// here: the retry loop checks ctx.Err() first.
	return true
}

func asStatusError(err error, target **StatusError) bool {
	for err != nil {
		if se, ok := err.(*StatusError); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	// The default is the shared pooled keep-alive client (transport.go),
	// not http.DefaultClient: DefaultTransport's two idle connections per
	// host forced a fresh TCP dial on nearly every request once more than
	// two workers shared a host.
	return pooledClient
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 3
}

func (c *Client) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 50 * time.Millisecond
}

// maxBodyBytes caps how much of a response body a fetch will read; the
// rest is silently discarded, like the io.LimitReader cap it replaced.
const maxBodyBytes = 8 << 20

// bodyPool recycles response-body buffers across fetches: one buffer per
// in-flight request instead of a fresh io.ReadAll allocation each time.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// maxPooledBuf caps what goes back into the pool: a rare near-limit body
// must not pin megabytes under a worker for the rest of a crawl.
const maxPooledBuf = 1 << 20

// getBuf / putBuf wrap the pool for call sites that hold a buffer across a
// paging loop.
func getBuf() *[]byte { return bodyPool.Get().(*[]byte) }

func putBuf(bp *[]byte, last []byte) {
	if last != nil {
		*bp = last[:0] // keep the grown backing array
	}
	if cap(*bp) > maxPooledBuf {
		return // drop oversized buffers instead of pooling them
	}
	bodyPool.Put(bp)
}

// Get fetches path from domain, returning the body. It rate-limits,
// retries retryable failures with exponential backoff, and honours ctx.
func (c *Client) Get(ctx context.Context, domain, path string) ([]byte, error) {
	return c.GetBuffered(ctx, domain, path, nil)
}

// GetBuffered is Get with an explicit reusable buffer: the body is read
// into buf[:0] and the (possibly grown) slice returned, so a paging loop
// pays for one buffer, not one allocation per page. The returned slice
// aliases buf; callers must copy anything they keep.
func (c *Client) GetBuffered(ctx context.Context, domain, path string, buf []byte) ([]byte, error) {
	return c.GetChecked(ctx, domain, path, buf, nil)
}

// maxRetryAfter caps how long a server-supplied Retry-After can stall one
// backoff step; a hostile header must not park a worker for an hour.
const maxRetryAfter = 2 * time.Minute

// GetChecked is GetBuffered with a payload integrity check folded into the
// retry loop: check runs on every successful body, and a check failure is
// retried like a torn read (a corrupt payload is indistinguishable from
// transport damage). This is what lets a decode failure heal instead of
// silently recording an instance as broken. A nil check accepts any body.
func (c *Client) GetChecked(ctx context.Context, domain, path string, buf []byte, check func(body []byte) error) ([]byte, error) {
	clk := vclock.OrSystem(c.Clock)
	var lastErr error
	backoff := c.backoff()
	for attempt := 0; attempt < c.retries(); attempt++ {
		if attempt > 0 {
			wait := backoff
			backoff *= 2
			// A server-supplied Retry-After overrides the exponential
			// backoff for this step (capped); it never adds attempts.
			var se *StatusError
			if asStatusError(lastErr, &se) && se.RetryAfter > 0 {
				wait = se.RetryAfter
				if wait > maxRetryAfter {
					wait = maxRetryAfter
				}
			}
			if err := clk.Sleep(ctx, wait); err != nil {
				return buf, err
			}
		}
		if c.Breaker != nil {
			if err := c.Breaker.Acquire(ctx, domain); err != nil {
				return buf, err
			}
		}
		if c.Limiter != nil {
			if err := c.Limiter.Wait(ctx, domain); err != nil {
				return buf, err
			}
		}
		body, err := c.getOnce(ctx, domain, path, buf)
		buf = body[:0]
		if err == nil && check != nil {
			if cerr := check(body); cerr != nil {
				err = &IntegrityError{Domain: domain, Path: path, Err: cerr}
			}
		}
		if err == nil {
			c.report(domain, true)
			return body, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// Cancellation says nothing about the host's health; the
			// breaker hears nothing.
			return buf, ctx.Err()
		}
		if !retryable(err) {
			// A conclusive answer (403, 404, quarantine refusal) is not a
			// host failure — the host spoke clearly.
			if _, isQuarantine := err.(*QuarantinedError); !isQuarantine {
				c.report(domain, true)
			}
			return buf, err
		}
		c.report(domain, false)
	}
	return buf, lastErr
}

func (c *Client) report(domain string, ok bool) {
	if c.Breaker != nil {
		c.Breaker.Report(domain, ok)
	}
}

// deadlineKey carries the per-attempt timeout on the request context so
// virtual-time transports (simnet's chaos layer) can charge a hang to the
// sim clock instead of stalling a wall-time timer.
type deadlineKey struct{}

// RequestDeadline returns the per-attempt timeout advertised on a request
// context by Client.RequestTimeout, or zero when none was set.
func RequestDeadline(ctx context.Context) time.Duration {
	d, _ := ctx.Value(deadlineKey{}).(time.Duration)
	return d
}

func (c *Client) getOnce(ctx context.Context, domain, path string, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if c.RequestTimeout > 0 {
		ctx = context.WithValue(ctx, deadlineKey{}, c.RequestTimeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.RequestTimeout)
		defer cancel()
	}
	f := fetchPool.Get().(*fetch)
	var req *http.Request
	var err error
	if c.Resolve != nil {
		req, err = f.get(ctx, c.Resolve(domain), path)
	} else {
		req, err = f.getHost(ctx, domain, path)
	}
	if err != nil {
		fetchPool.Put(f)
		return buf, err
	}
	req.Host = domain
	if c.UserAgent != "" {
		req.Header.Set("User-Agent", c.UserAgent)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Without a response there is no Body whose Close says the
		// transport is done with req, so f is left to the collector.
		return buf, err
	}
	defer fetchPool.Put(f) // after the Close below: defers run last first
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		se := &StatusError{Domain: domain, Path: path, Code: resp.StatusCode}
		if se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable {
			se.RetryAfter = c.parseRetryAfter(resp.Header.Get("Retry-After"))
		}
		return buf, se
	}
	return readBody(resp.Body, buf)
}

// fetch is one fetch's request, kept for the next: an *http.Request with
// its url.URL and header map, refilled for every plain URL instead of built
// anew. net/http lets a caller reuse a request once the Body of its
// response is closed, and getOnce pools a fetch only then. bound is the
// context req carries when that context's type is comparable and nil
// otherwise, so comparing a caller's context with it never panics.
type fetch struct {
	req   *http.Request
	url   url.URL
	bound context.Context
}

var fetchPool = sync.Pool{New: func() any {
	f := new(fetch)
	f.req = &http.Request{
		Method: http.MethodGet, URL: &f.url, Header: make(http.Header),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	return f
}}

// get returns the request http.NewRequestWithContext(ctx, GET, base+path,
// nil) returns. It is f's own request when the URL is plain, and valid
// until f's next get or getHost.
func (f *fetch) get(ctx context.Context, base, path string) (*http.Request, error) {
	if host, ok := strings.CutPrefix(base, "http://"); ok {
		return f.getHost(ctx, host, path)
	}
	return http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
}

// getHost is get for the base "http://" + host. When that and path make a
// plain URL the parse is skipped: the parts are already in hand, and
// url.Parse of the concatenation would only cut them apart again. A nil
// context goes to NewRequestWithContext, which refuses it.
func (f *fetch) getHost(ctx context.Context, host, path string) (*http.Request, error) {
	p, query, ok := plainURL(host, path)
	if !ok || ctx == nil {
		return http.NewRequestWithContext(ctx, http.MethodGet, "http://"+host+path, nil)
	}
	if ctx != f.bound {
		// WithContext copies the Request; the copy shares url and Header.
		f.req, f.bound = f.req.WithContext(ctx), nil
		if reflect.TypeOf(ctx).Comparable() {
			f.bound = ctx
		}
	}
	f.url = url.URL{Scheme: "http", Host: host, Path: p, RawQuery: query}
	clear(f.req.Header)
	f.req.Host = host
	return f.req, nil
}

// plainURL splits "http://"+host+path into the Path and RawQuery url.Parse
// would report beside that Host, for the URLs it can vouch for without
// parsing: host is plain (plainHost); path starts with '/' and is made of
// unreserved characters and '/'; the query, if a '?' is present, is
// non-empty and made of unreserved characters, '=' and '&'. url.Parse
// carries every such byte through unchanged and sets no other field.
// Anything else — escapes, '#', a trailing or second '?', userinfo, IPv6
// literals, an empty port — is not plain.
func plainURL(host, path string) (p, query string, ok bool) {
	if !plainHost(host) || path == "" || path[0] != '/' {
		return "", "", false
	}
	p, query, hasQuery := strings.Cut(path, "?")
	if hasQuery && query == "" {
		return "", "", false
	}
	for i := 0; i < len(p); i++ {
		if c := p[i]; !isUnreserved(c) && c != '/' {
			return "", "", false
		}
	}
	for i := 0; i < len(query); i++ {
		if c := query[i]; !isUnreserved(c) && c != '=' && c != '&' {
			return "", "", false
		}
	}
	return p, query, true
}

// plainHost reports whether host is letters, digits, '.' and '-' with an
// optional ":port" of digits: a URL authority that is nothing but a host.
func plainHost(host string) bool {
	name, port, hasPort := strings.Cut(host, ":")
	if hasPort && port == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; !isAlnum(c) && c != '.' && c != '-' {
			return false
		}
	}
	for i := 0; i < len(port); i++ {
		if c := port[i]; c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// isUnreserved reports whether c is an RFC 3986 unreserved character.
func isUnreserved(c byte) bool {
	return isAlnum(c) || c == '-' || c == '.' || c == '_' || c == '~'
}

// parseRetryAfter handles both RFC 7231 forms: delay-seconds and HTTP-date
// (evaluated against the injected clock, so virtual-time campaigns wait
// virtual seconds).
func (c *Client) parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		// Clamped before the multiplication, which would wrap past
		// math.MaxInt64 nanoseconds; every wait past the cap is the cap.
		return time.Duration(min(secs, int(maxRetryAfter/time.Second))) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(vclock.OrSystem(c.Clock).Now()); d > 0 {
			return d
		}
	}
	return 0
}

// readBody appends the reader's content to buf up to maxBodyBytes.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) >= maxBodyBytes {
			return buf, nil
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		end := cap(buf)
		if end > maxBodyBytes {
			end = maxBodyBytes
		}
		n, err := r.Read(buf[len(buf):end])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// forEach calls fn(ctx, i) for every i in [0, n) from min(workers, n)
// goroutines (workers < 1 means one) and returns when all of them have
// exited. Each goroutine claims the next unclaimed index until none is
// left, so an index runs exactly once and at most workers calls of fn are
// in flight. fn sees the caller's ctx. errs[i] is what fn returned for i;
// an index claimed after ctx is cancelled gets ctx.Err() and fn is not
// called for it. A long-lived worker, not a goroutine per item: a newborn
// goroutine regrows its stack on the way down through the HTTP client,
// which cost more than the request it carried.
func forEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(ctx, i)
			}
		}()
	}
	wg.Wait()
	return errs
}
