package simnet

import (
	"repro/internal/instance"
	"repro/internal/sim"
)

// Injector replays a sim.TraceSet onto live servers: at every applied slot,
// an instance whose trace bit is down starts refusing requests with 503s —
// exactly the failure the mnm.social prober recorded — and comes back when
// the trace does. Traces and domains are matched by position.
//
// Two scenario controls compose with the base traces at every Apply: an
// overlay trace set (OR-ed in, for replaying generated outage storms onto a
// running campaign) and a kill set (domains pinned down permanently, for
// churn and §5.2-style death experiments).
type Injector struct {
	net     *instance.Network
	domains []string
	index   map[string]int
	traces  *sim.TraceSet
	overlay *sim.TraceSet
	killed  map[string]bool
	slot    int
}

// NewInjector builds an injector for the given network. domains[i] must be
// the instance whose availability traces.Traces[i] records.
func NewInjector(net *instance.Network, domains []string, traces *sim.TraceSet) *Injector {
	if len(domains) != traces.Len() {
		panic("simnet: injector domain/trace count mismatch")
	}
	index := make(map[string]int, len(domains))
	for i, d := range domains {
		index[d] = i
	}
	return &Injector{
		net:     net,
		domains: domains,
		index:   index,
		traces:  traces,
		killed:  make(map[string]bool),
		slot:    -1,
	}
}

// SetOverlay installs an extra trace set that is OR-ed onto the base traces
// at every Apply — the storm-replay hook: a correlated outage set generated
// by sim.GenCorrelatedOutages takes effect mid-campaign without touching
// the world's ground-truth traces. Overlay traces are matched to domains by
// position, exactly like the base set. nil clears the overlay.
func (inj *Injector) SetOverlay(ts *sim.TraceSet) {
	if ts != nil && ts.Len() != len(inj.domains) {
		panic("simnet: injector overlay/domain count mismatch")
	}
	inj.overlay = ts
}

// Kill takes the domain's server offline immediately and permanently: every
// later Apply keeps it down no matter what the traces (or overlay) say.
// Domains outside the injector's trace population — instances registered
// mid-campaign — may be killed too.
func (inj *Injector) Kill(domain string) {
	inj.killed[domain] = true
	if srv := inj.net.Server(domain); srv != nil {
		srv.SetOnline(false)
	}
}

// Killed reports whether domain has been killed.
func (inj *Injector) Killed(domain string) bool { return inj.killed[domain] }

// Apply drives every server's availability from its trace at slot: down iff
// the base trace, the overlay, or a kill says so. Slots outside the trace
// window leave instances up (the trace has no opinion). Killed domains
// outside the trace population are re-pinned down, so a server registered
// after its Kill stays dead.
func (inj *Injector) Apply(slot int) {
	inj.slot = slot
	for i, d := range inj.domains {
		srv := inj.net.Server(d)
		if srv == nil {
			continue
		}
		down := inj.traces.Traces[i].IsDown(slot)
		if !down && inj.overlay != nil {
			down = inj.overlay.Traces[i].IsDown(slot)
		}
		if !down && inj.killed[d] {
			down = true
		}
		srv.SetOnline(!down)
	}
	for d := range inj.killed {
		if _, traced := inj.index[d]; traced {
			continue
		}
		if srv := inj.net.Server(d); srv != nil {
			srv.SetOnline(false)
		}
	}
}

// Slot returns the most recently applied slot (-1 before the first Apply).
func (inj *Injector) Slot() int { return inj.slot }

// BindFaults arms a chaos transport with a fault schedule aligned to this
// injector's domain population (fs.Faults[i] scripts domains[i], exactly
// like the availability traces) and makes the injector its slot source, so
// each Apply moves both the up/down overlay and the byzantine faults to
// the same slot. nil fs disarms the transport.
func (inj *Injector) BindFaults(ft *FaultTransport, fs *sim.FaultSet) {
	if fs != nil && fs.Len() != len(inj.domains) {
		panic("simnet: fault schedule/domain count mismatch")
	}
	ft.Install(fs, inj.domains)
	ft.SetSlotSource(inj.Slot)
}
