package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/stats"
)

// RunConfig controls plan execution.
type RunConfig struct {
	// Target is the base URL of the server multiplexing the world's
	// domains by Host header (a fediserve listener).
	Target string
	// Workers is the number of concurrent request workers (0 = 16). Each
	// worker keeps its own keep-alive connection, latency histogram and
	// ETag memory, merged into the report at the end.
	Workers int
	// Timeout bounds each request (0 = 10s).
	Timeout time.Duration
	// HTTP overrides the HTTP client (tests inject a memory transport);
	// nil builds a pooled keep-alive client sized to the worker count.
	HTTP *http.Client
}

// Report is the JSON result of one load run. Latency quantiles come from
// an HDR-style histogram (stats.LatencyHistogram, <1% relative error);
// latency is measured from each request's *scheduled* arrival, so queueing
// caused by a saturated server is charged to the server, not silently
// absorbed by the schedule (no coordinated omission).
type Report struct {
	Seed          uint64  `json:"seed"`
	TargetRateRPS float64 `json:"target_rate_rps"`
	Requests      int     `json:"requests"`
	Status2xx     int     `json:"status_2xx"`
	Status304     int     `json:"status_304"`
	StatusOther   int     `json:"status_other"`
	Errors        int     `json:"errors"`
	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	MaxMs         float64 `json:"max_ms"`

	// Hist is the merged latency histogram behind the quantiles.
	Hist *stats.LatencyHistogram `json:"-"`
}

// worker-local tallies, merged under one lock at the end of the run.
type workerState struct {
	hist  stats.LatencyHistogram
	s2xx  int
	s304  int
	sOth  int
	errs  int
	etags map[string]string // domain+path → last seen ETag
}

// Run replays a plan against cfg.Target. The dispatcher paces arrivals on
// the wall clock and never waits for a response (open loop); workers drain
// the arrival queue as fast as the server lets them. Run returns once
// every request has completed or ctx is cancelled (cancellation abandons
// undispatched requests but still reports what ran).
func Run(ctx context.Context, plan []Request, cfg RunConfig) (*Report, error) {
	if len(plan) == 0 {
		return nil, fmt.Errorf("loadgen: empty plan")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 16
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	client := cfg.HTTP
	if client == nil {
		client = &http.Client{Transport: crawler.PooledTransport(workers)}
	}

	// The queue holds the whole plan so the dispatcher can never block on
	// slow workers — that would close the loop.
	queue := make(chan int, len(plan))
	start := time.Now()
	go func() {
		defer close(queue)
		timer := time.NewTimer(0)
		defer timer.Stop()
		for i := range plan {
			wait := time.Until(start.Add(plan[i].At))
			if wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					return
				}
			} else if ctx.Err() != nil {
				return
			}
			queue <- i
		}
	}()

	states := make([]*workerState, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		st := &workerState{etags: make(map[string]string)}
		states[wi] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				runOne(ctx, client, cfg.Target, &plan[i], start, timeout, st)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Hist: &stats.LatencyHistogram{}}
	for _, st := range states {
		rep.Hist.Merge(&st.hist)
		rep.Status2xx += st.s2xx
		rep.Status304 += st.s304
		rep.StatusOther += st.sOth
		rep.Errors += st.errs
	}
	rep.Requests = rep.Status2xx + rep.Status304 + rep.StatusOther + rep.Errors
	rep.DurationSec = elapsed.Seconds()
	if rep.DurationSec > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / rep.DurationSec
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.MeanMs = ms(rep.Hist.Mean())
	rep.P50Ms = ms(rep.Hist.Quantile(0.5))
	rep.P90Ms = ms(rep.Hist.Quantile(0.9))
	rep.P99Ms = ms(rep.Hist.Quantile(0.99))
	rep.P999Ms = ms(rep.Hist.Quantile(0.999))
	rep.MaxMs = ms(rep.Hist.Max())
	return rep, nil
}

// runOne issues one planned request and records its outcome into st.
func runOne(ctx context.Context, client *http.Client, target string, pr *Request, start time.Time, timeout time.Duration, st *workerState) {
	scheduled := start.Add(pr.At)
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, target+pr.Path, nil)
	if err != nil {
		st.errs++
		return
	}
	req.Host = pr.Domain
	etagKey := pr.Domain + pr.Path
	if tag, ok := st.etags[etagKey]; ok {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := client.Do(req)
	if err != nil {
		st.errs++
		st.hist.Record(time.Since(scheduled))
		return
	}
	io.Copy(io.Discard, resp.Body) // drain so keep-alive can reuse the conn
	resp.Body.Close()
	st.hist.Record(time.Since(scheduled))
	switch {
	case resp.StatusCode == http.StatusNotModified:
		st.s304++
	case resp.StatusCode/100 == 2:
		st.s2xx++
	default:
		st.sOth++
	}
	if tag := resp.Header.Get("Etag"); tag != "" {
		st.etags[etagKey] = tag
	}
}
