package crawler

import (
	"net"
	"net/http"
	"time"
)

// The crawler's traffic shape is the opposite of a browser's: a handful of
// hosts (often one test server fronting thousands of virtual domains) hit
// by many workers for hours. net/http's DefaultTransport keeps only two
// idle connections per host, so under ≥3 workers nearly every request paid
// a fresh TCP dial — connect latency on the request path and a socket in
// TIME_WAIT left behind. PooledTransport keeps enough keep-alive
// connections warm for every worker; the load generator reuses it so
// measured latencies are request cost, not dial cost.

// DefaultMaxIdlePerHost is the idle keep-alive connection budget per host
// when PooledTransport is given no explicit size: comfortably above the
// widest worker pool in the repo (crawl benchmarks run ≤ 64 workers).
const DefaultMaxIdlePerHost = 128

// PooledTransport returns a keep-alive HTTP transport holding up to
// maxIdlePerHost warm connections per host (0 = DefaultMaxIdlePerHost).
func PooledTransport(maxIdlePerHost int) *http.Transport {
	if maxIdlePerHost <= 0 {
		maxIdlePerHost = DefaultMaxIdlePerHost
	}
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        2 * maxIdlePerHost,
		MaxIdleConnsPerHost: maxIdlePerHost,
		IdleConnTimeout:     90 * time.Second,
	}
}

// pooledClient is the Client's default HTTP client: shared process-wide so
// every component (monitor, toot crawler, scraper, discoverer, loadgen)
// draws from one warm connection pool.
var pooledClient = &http.Client{Transport: PooledTransport(0)}
