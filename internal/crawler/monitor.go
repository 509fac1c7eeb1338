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
	// Clock supplies the default sample timestamps (nil = the system
	// clock).
	Clock vclock.Clock
	// Now overrides the sample timestamp source (defaults to Clock.Now);
	// campaign drivers pin it per round so replayed probes carry exact
	// slot times.
	Now func() time.Time

	// versions[i] is the version string Domains[i] last reported. An
	// instance reports the same one round after round, so its samples share
	// it. Slot i is read and written only by the worker probing Domains[i].
	versions []string
}

// PollOnce probes every domain once, concurrently, and returns one sample
// per domain (offline instances yield Online=false samples). Each worker
// fetches through a pooled body buffer and reads the document with
// internal/wire's instance-info scanner — the probe loop runs hundreds of
// thousands of times per campaign and never touches encoding/json. One
// PollOnce runs at a time on a Monitor.
func (m *Monitor) PollOnce(ctx context.Context) []Sample {
	now := vclock.OrSystem(m.Clock).Now
	if m.Now != nil {
		now = m.Now
	}
	// Every sample carries its domain and the round's time before any
	// fetch starts: forEach does not run an index claimed after ctx is
	// cancelled, and such an instance must read as offline, not as a
	// sample of a domain named "".
	samples := make([]Sample, len(m.Domains))
	at := now()
	for i, d := range m.Domains {
		samples[i] = Sample{Domain: d, At: at}
	}
	if len(m.versions) != len(m.Domains) {
		m.versions = make([]string, len(m.Domains))
	}
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
		var info wire.InstanceView
		body, err := m.Client.GetChecked(ctx, domain, "/api/v1/instance", *bp, func(b []byte) error {
			info = wire.InstanceView{}
			return wire.ScanInstanceInfo(b, &info)
		})
		if err == nil {
			s.Online = true
			s.Users = info.Stats.UserCount
			s.Toots = info.Stats.StatusCount
			s.Peers = info.Stats.DomainCount
			s.Open = info.Registrations
			// info.Version points into body, which is still this worker's.
			if string(info.Version) != m.versions[i] {
				m.versions[i] = string(info.Version)
			}
			s.Version = m.versions[i]
		}
		putBuf(bp, body)
		samples[i] = s
		return nil
	})
	return samples
}

// ProbeLog accumulates samples and answers availability questions — the
// bridge from raw monitoring to the §4.4 analyses. A round is filed once:
// the log keeps the slice it is given and files a pointer to each sample
// under the sample's domain. A monitor reports a fixed population in the
// same order every round, so samples are filed by position: rows[i] holds
// the samples of domains[i], and index is read only for a sample that does
// not arrive in its domain's position.
type ProbeLog struct {
	mu      sync.Mutex
	domains []string
	rows    [][]*Sample
	index   map[string]int
}

// NewProbeLog returns an empty log.
func NewProbeLog() *ProbeLog {
	return &ProbeLog{index: make(map[string]int)}
}

// Add files a round of samples. The slice is the log's from here on: the
// caller must not write to it again.
func (p *ProbeLog) Add(samples []Sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range samples {
		s := &samples[i]
		j := i
		if i >= len(p.domains) || p.domains[i] != s.Domain {
			var seen bool
			if j, seen = p.index[s.Domain]; !seen {
				j = len(p.domains)
				p.index[s.Domain] = j
				p.domains = append(p.domains, s.Domain)
				p.rows = append(p.rows, nil)
			}
		}
		p.rows[j] = append(p.rows[j], s)
	}
}

// Domains lists probed domains in first-seen order.
func (p *ProbeLog) Domains() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.domains...)
}

// row returns the samples filed under domain (nil if never probed). The
// caller holds p.mu.
func (p *ProbeLog) row(domain string) []*Sample {
	if j, ok := p.index[domain]; ok {
		return p.rows[j]
	}
	return nil
}

// Samples returns a copy of the samples recorded for a domain.
func (p *ProbeLog) Samples(domain string) []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	row := p.row(domain)
	if len(row) == 0 {
		return nil
	}
	out := make([]Sample, len(row))
	for k, s := range row {
		out[k] = *s
	}
	return out
}

// LastOnline returns the latest sample that found the domain online — the
// one its §3 instance metadata is read from — and false if none did.
func (p *ProbeLog) LastOnline(domain string) (Sample, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	row := p.row(domain)
	for k := len(row) - 1; k >= 0; k-- {
		if row[k].Online {
			return *row[k], true
		}
	}
	return Sample{}, false
}

// DowntimeFraction returns the fraction of probes that found the domain
// offline (0 if never probed).
func (p *ProbeLog) DowntimeFraction(domain string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	ss := p.row(domain)
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
	for _, ss := range p.rows {
		if len(ss) > rounds {
			rounds = len(ss)
		}
	}
	ts := &sim.TraceSet{SlotsPerDay: slotsPerDay, Traces: make([]*sim.Trace, len(p.domains))}
	for i, ss := range p.rows {
		tr := sim.NewTrace(rounds)
		for slot := 0; slot < rounds; slot++ {
			if slot >= len(ss) || !ss[slot].Online {
				tr.SetDown(slot)
			}
		}
		ts.Traces[i] = tr
	}
	return ts, append([]string(nil), p.domains...)
}
