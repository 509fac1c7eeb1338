package crawler

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/vclock"
)

// HostBreaker is a deterministic per-host circuit breaker shared by every
// crawler component (monitor, toot crawler, follower scraper, discoverer)
// and, through them, by every toot-crawl worker. It tracks *consecutive*
// failures per host:
//
//	closed ──Threshold consecutive failures──▶ open
//	open ──cooldown elapses (virtual sleep)──▶ half-open
//	half-open ──trial succeeds──▶ closed          (cooldown resets)
//	half-open ──trial fails──▶ open               (cooldown doubles, capped)
//	any ──Budget consecutive failures──▶ quarantined (permanent)
//
// The design constraint that shapes everything here is the chaos
// convergence invariant: under a transient-only fault schedule the crawl
// must produce byte-identical output to the fault-free crawl. So before
// quarantine the breaker only ever *waits* (a virtual-time sleep that is
// free under the sim clock), never fails fast — failing fast would turn a
// would-succeed-after-retry request into a recorded failure and change the
// harvest. And because the count is of consecutive failures with reset on
// success, the breaker's observable state at every probe-round boundary is
// identical between a chaos-transient run and a fault-free run: every
// transient episode ends in a success that zeroes the count.
//
// Quarantine is the per-host retry *budget*: a host that fails Budget
// times in a row with no intervening success is declared hopeless and all
// further requests fail fast with QuarantinedError. Size Budget above the
// worst consecutive-failure run a legitimately flapping host can produce
// (longest scheduled outage × per-call attempts) so only persistent
// byzantine faults can exhaust it.
type HostBreaker struct {
	cfg BreakerConfig
	clk vclock.Clock

	mu    sync.Mutex
	hosts map[string]*hostState
}

// BreakerConfig tunes the breaker. The zero value is usable.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the circuit
	// (0 = 8).
	Threshold int
	// Cooldown is the initial open interval before a half-open trial
	// (0 = 30s). It doubles on each failed trial.
	Cooldown time.Duration
	// MaxCooldown caps the doubling (0 = 4m). Keep it below the probing
	// cadence (five minutes) so an open breaker can never push a probe
	// past its slot and change what the monitor records.
	MaxCooldown time.Duration
	// Budget is the consecutive-failure count that quarantines the host
	// permanently (0 = 512).
	Budget int
}

func (c BreakerConfig) threshold() int {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return 8
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return 30 * time.Second
}

func (c BreakerConfig) maxCooldown() time.Duration {
	if c.MaxCooldown > 0 {
		return c.MaxCooldown
	}
	return 4 * time.Minute
}

func (c BreakerConfig) budget() int {
	if c.Budget > 0 {
		return c.Budget
	}
	return 512
}

type hostState struct {
	fails       int  // consecutive failures, reset on success
	totalFails  int  // lifetime failures (stats only)
	open        bool // circuit open: requests wait until reopenAt
	halfOpen    bool // cooldown elapsed, next request is the trial
	trial       bool // a half-open trial is in flight
	quarantined bool
	opens       int // times the circuit opened (stats only)
	cooldown    time.Duration
	reopenAt    time.Time
}

// QuarantinedError reports a request refused because the host exhausted
// its failure budget. It is never retryable.
type QuarantinedError struct {
	Host  string
	Fails int
}

// Error implements error.
func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("crawler: host %s quarantined after %d consecutive failures", e.Host, e.Fails)
}

// NewHostBreaker returns a breaker on the given clock (nil = system).
func NewHostBreaker(cfg BreakerConfig, clk vclock.Clock) *HostBreaker {
	return &HostBreaker{
		cfg:   cfg,
		clk:   vclock.OrSystem(clk),
		hosts: make(map[string]*hostState),
	}
}

func (b *HostBreaker) state(host string) *hostState {
	st := b.hosts[host]
	if st == nil {
		st = &hostState{cooldown: b.cfg.cooldown()}
		b.hosts[host] = st
	}
	return st
}

// Acquire gates a request to host. Quarantined hosts fail fast with
// QuarantinedError; an open circuit sleeps (on the injected clock — free
// virtual time under the sim) until its cooldown elapses, then admits the
// caller as the half-open trial; concurrent callers during a trial wait
// their turn. Closed circuits pass immediately.
func (b *HostBreaker) Acquire(ctx context.Context, host string) error {
	for {
		b.mu.Lock()
		st := b.state(host)
		if st.quarantined {
			fails := st.fails
			b.mu.Unlock()
			return &QuarantinedError{Host: host, Fails: fails}
		}
		if !st.open {
			b.mu.Unlock()
			return nil
		}
		if st.halfOpen && !st.trial {
			st.trial = true
			b.mu.Unlock()
			return nil
		}
		var wait time.Duration
		if !st.halfOpen {
			wait = st.reopenAt.Sub(b.clk.Now())
			if wait <= 0 {
				st.halfOpen = true
				st.trial = true
				b.mu.Unlock()
				return nil
			}
		} else {
			// Another caller holds the trial; poll until it reports.
			wait = st.cooldown / 2
			if wait <= 0 {
				wait = time.Millisecond
			}
		}
		b.mu.Unlock()
		if err := b.clk.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// Report records a request outcome for host. Success closes the circuit
// and zeroes the consecutive-failure count (quarantine is sticky and
// unaffected); failure counts toward the open threshold and the quarantine
// budget, and a failed half-open trial doubles the cooldown.
func (b *HostBreaker) Report(host string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state(host)
	if ok {
		st.fails = 0
		st.open = false
		st.halfOpen = false
		st.trial = false
		st.cooldown = b.cfg.cooldown()
		return
	}
	st.fails++
	st.totalFails++
	if st.fails >= b.cfg.budget() {
		if !st.quarantined {
			st.quarantined = true
			st.open = true
		}
		return
	}
	switch {
	case st.halfOpen:
		// Failed trial: back off harder.
		st.halfOpen = false
		st.trial = false
		st.cooldown *= 2
		if max := b.cfg.maxCooldown(); st.cooldown > max {
			st.cooldown = max
		}
		st.reopenAt = b.clk.Now().Add(st.cooldown)
		st.opens++
	case !st.open && st.fails >= b.cfg.threshold():
		st.open = true
		st.halfOpen = false
		st.trial = false
		st.cooldown = b.cfg.cooldown()
		st.reopenAt = b.clk.Now().Add(st.cooldown)
		st.opens++
	}
}

// Quarantined reports whether host has exhausted its budget.
func (b *HostBreaker) Quarantined(host string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.hosts[host]
	return st != nil && st.quarantined
}

// QuarantinedHosts lists every quarantined host, sorted.
func (b *HostBreaker) QuarantinedHosts() []string {
	b.mu.Lock()
	var out []string
	for host, st := range b.hosts {
		if st.quarantined {
			out = append(out, host)
		}
	}
	b.mu.Unlock()
	sort.Strings(out)
	return out
}

// BreakerStats aggregates breaker activity across hosts.
type BreakerStats struct {
	Hosts       int // hosts the breaker has seen fail at least once
	Opens       int // circuit-open transitions
	Failures    int // lifetime failure reports
	Quarantined int // hosts permanently quarantined
}

// Stats returns aggregate counters.
func (b *HostBreaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var s BreakerStats
	for _, st := range b.hosts {
		if st.totalFails == 0 && !st.quarantined {
			continue
		}
		s.Hosts++
		s.Opens += st.opens
		s.Failures += st.totalFails
		if st.quarantined {
			s.Quarantined++
		}
	}
	return s
}

// HostBreakerState is one host's snapshot for diagnostic output.
type HostBreakerState struct {
	Host        string
	Fails       int // consecutive failures right now
	Failures    int // lifetime failures
	Opens       int
	Open        bool
	Quarantined bool
}

// Snapshot returns per-host state for every host with recorded failures,
// sorted by host name — the payload behind fedicrawl -breaker-stats.
func (b *HostBreaker) Snapshot() []HostBreakerState {
	b.mu.Lock()
	var out []HostBreakerState
	for host, st := range b.hosts {
		if st.totalFails == 0 && !st.quarantined {
			continue
		}
		out = append(out, HostBreakerState{
			Host:        host,
			Fails:       st.fails,
			Failures:    st.totalFails,
			Opens:       st.opens,
			Open:        st.open,
			Quarantined: st.quarantined,
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}
