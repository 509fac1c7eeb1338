package crawler

import (
	"context"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Sample is one probe datapoint: what mnm.social recorded for one instance
// every five minutes (§3).
type Sample struct {
	Domain  string
	At      time.Time
	Online  bool
	Users   int
	Toots   int64
	Peers   int
	Open    bool
	Version string
}

// Monitor polls the instance API of a fixed instance population.
type Monitor struct {
	Client  *Client
	Domains []string
	Workers int
	// Clock drives the probe cadence and default timestamps (nil = the
	// system clock). A vclock.Sim turns a multi-week probing campaign into
	// a wall-clock-free simulation.
	Clock vclock.Clock
	// Now overrides the sample timestamp source (defaults to Clock.Now);
	// campaign drivers pin it per round so replayed probes carry exact
	// slot times.
	Now func() time.Time
}

// PollOnce probes every domain once, concurrently, and returns one sample
// per domain (offline instances yield Online=false samples). Each worker
// fetches through a pooled body buffer and the internal/wire instance-info
// decoder — the probe loop runs hundreds of thousands of times per
// campaign and never touches encoding/json.
func (m *Monitor) PollOnce(ctx context.Context) []Sample {
	now := vclock.OrSystem(m.Clock).Now
	if m.Now != nil {
		now = m.Now
	}
	samples := make([]Sample, len(m.Domains))
	workers := m.Workers
	if workers < 1 {
		workers = 16
	}
	forEach(ctx, len(m.Domains), workers, func(ctx context.Context, i int) error {
		domain := m.Domains[i]
		s := Sample{Domain: domain, At: now()}
		bp := getBuf()
		// The decode runs inside the fetch's integrity check so a corrupt
		// payload is retried like a torn read instead of silently recording
		// the instance as offline — an up instance behind a transient
		// corruption fault must still probe as up.
		var info wire.InstanceInfo
		body, err := m.Client.GetChecked(ctx, domain, "/api/v1/instance", *bp, func(b []byte) error {
			info = wire.InstanceInfo{}
			return wire.DecodeInstanceInfo(b, &info)
		})
		if err == nil {
			s.Online = true
			s.Users = info.Stats.UserCount
			s.Toots = info.Stats.StatusCount
			s.Peers = info.Stats.DomainCount
			s.Open = info.Registrations
			s.Version = info.Version
		}
		putBuf(bp, body)
		samples[i] = s
		return nil
	})
	return samples
}

// Run polls on the given cadence until ctx is cancelled, sending each round
// of samples to sink. The first round fires immediately. The cadence runs on
// the monitor's Clock, so a simulated campaign ticks in virtual time.
func (m *Monitor) Run(ctx context.Context, interval time.Duration, sink func([]Sample)) {
	t := vclock.OrSystem(m.Clock).NewTicker(interval)
	defer t.Stop()
	for {
		sink(m.PollOnce(ctx))
		select {
		case <-ctx.Done():
			return
		case <-t.C():
		}
	}
}

// ProbeLog accumulates samples and answers availability questions — the
// bridge from raw monitoring to the §4.4 analyses.
type ProbeLog struct {
	mu      sync.Mutex
	byInst  map[string][]Sample
	domains []string
}

// NewProbeLog returns an empty log.
func NewProbeLog() *ProbeLog {
	return &ProbeLog{byInst: make(map[string][]Sample)}
}

// Add appends a round of samples.
func (p *ProbeLog) Add(samples []Sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range samples {
		if _, ok := p.byInst[s.Domain]; !ok {
			p.domains = append(p.domains, s.Domain)
		}
		p.byInst[s.Domain] = append(p.byInst[s.Domain], s)
	}
}

// Domains lists probed domains in first-seen order.
func (p *ProbeLog) Domains() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.domains...)
}

// Samples returns the samples recorded for a domain.
func (p *ProbeLog) Samples(domain string) []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Sample(nil), p.byInst[domain]...)
}

// DowntimeFraction returns the fraction of probes that found the domain
// offline (0 if never probed).
func (p *ProbeLog) DowntimeFraction(domain string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	ss := p.byInst[domain]
	if len(ss) == 0 {
		return 0
	}
	down := 0
	for _, s := range ss {
		if !s.Online {
			down++
		}
	}
	return float64(down) / float64(len(ss))
}

// ToTraceSet converts the probe log into the §4.4 trace representation:
// one bit per recorded round per domain, in domain first-seen order. It
// bridges live monitoring to every availability analysis (downtime CDFs,
// outage durations, AS-failure detection). Returns the trace set and the
// domain order; domains probed an unequal number of rounds are padded as
// down (unprobed = unobserved = unreachable to the prober).
func (p *ProbeLog) ToTraceSet(slotsPerDay int) (*sim.TraceSet, []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rounds := 0
	for _, ss := range p.byInst {
		if len(ss) > rounds {
			rounds = len(ss)
		}
	}
	ts := &sim.TraceSet{SlotsPerDay: slotsPerDay, Traces: make([]*sim.Trace, len(p.domains))}
	for i, d := range p.domains {
		tr := sim.NewTrace(rounds)
		ss := p.byInst[d]
		for slot := 0; slot < rounds; slot++ {
			if slot >= len(ss) || !ss[slot].Online {
				tr.SetDown(slot)
			}
		}
		ts.Traces[i] = tr
	}
	return ts, append([]string(nil), p.domains...)
}
