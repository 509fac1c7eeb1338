package sim

import (
	"math/rand/v2"
	"sort"
)

// This file generates *byzantine* fault schedules: the long tail of
// misbehaviour the clean up/down traces cannot express. A real fediverse
// instance does not just go offline — it hangs until the client gives up,
// resets connections mid-body, serves truncated or garbled payloads, rate
// limits with 429s, or flaps. A FaultSet scripts exactly that, per
// (instance, slot), and the simnet chaos transport replays it onto a live
// campaign under virtual time. Generation follows the same determinism
// discipline as GenCorrelatedOutages: per-instance independent random
// streams with unconditional draws, so the same config always yields the
// same schedule and adding an instance never perturbs another's faults.

// FaultKind names one byzantine failure mode.
type FaultKind uint8

// The fault taxonomy. FaultNone is the zero value, never generated.
const (
	FaultNone FaultKind = iota
	// FaultHang: the request stalls until the client's per-request
	// deadline fires (or a default stall for clients without one).
	FaultHang
	// FaultReset: the connection is torn down mid-body; the client sees a
	// partial payload ending in a reset error.
	FaultReset
	// FaultTruncate: the body is cut short against its declared length;
	// the client sees io.ErrUnexpectedEOF mid-read.
	FaultTruncate
	// FaultCorrupt: payload bytes are garbled in flight; JSON responses
	// fail to decode, unframed (HTML) responses degrade to a torn read.
	FaultCorrupt
	// Fault5xx: the server answers 500s — an application-level storm while
	// the process is still up.
	Fault5xx
	// Fault429: the server rate-limits with 429 plus a Retry-After header
	// (alternating seconds and HTTP-date forms).
	Fault429
	// FaultFlap: rapid up/down flapping — every other request fails with a
	// reset, the rest pass clean. Flap is transient by construction: it
	// can never starve a retrying client.
	FaultFlap

	faultKinds // count sentinel
)

var faultKindNames = [faultKinds]string{
	"none", "hang", "reset", "truncate", "corrupt", "5xx", "429", "flap",
}

// String names the kind ("hang", "reset", …).
func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return "invalid"
}

// Fault is one scheduled failure episode on one instance: requests during
// slots [Start, End) misbehave per Kind.
type Fault struct {
	Kind FaultKind
	// Start/End are absolute probe slots, [Start, End).
	Start, End int
	// Hits bounds how many requests the fault bites per (slot, endpoint
	// class); once spent, later requests in the slot pass clean. Hits == 0
	// means unlimited — a persistent fault that never lets a request
	// through. A transient-only schedule (every fault Hits > 0) is the
	// precondition of the chaos convergence invariant, and a retrying
	// client outlasts it iff its per-call attempts exceed Hits.
	Hits int
	// RetryAfter is the Retry-After value in seconds for Fault429.
	RetryAfter int
}

// Persistent reports whether the fault never stops biting.
func (f Fault) Persistent() bool { return f.Hits <= 0 }

// Covers reports whether the fault is active at slot.
func (f Fault) Covers(slot int) bool { return slot >= f.Start && slot < f.End }

// FaultSet is a fault schedule over an instance population: Faults[i]
// scripts instance i, sorted by Start (then End, then Kind). It is the
// byzantine sibling of the availability TraceSet and composes with it: the
// injector keeps replaying up/down traces while the chaos transport replays
// the fault schedule on top.
type FaultSet struct {
	// Slots is the schedule length (absolute probe slots, same calendar as
	// the world's traces).
	Slots int
	// Faults holds each instance's episodes, sorted by Start.
	Faults [][]Fault
}

// Len returns the instance population size.
func (fs *FaultSet) Len() int { return len(fs.Faults) }

// At returns the fault active for instance i at slot. When episodes
// overlap, the earliest-starting one wins — the deterministic tie-break the
// chaos transport relies on.
func (fs *FaultSet) At(i, slot int) (Fault, bool) {
	if i < 0 || i >= len(fs.Faults) {
		return Fault{}, false
	}
	for _, f := range fs.Faults[i] {
		if f.Start > slot {
			break
		}
		if f.Covers(slot) {
			return f, true
		}
	}
	return Fault{}, false
}

// PersistentFrom returns the first slot from which instance i is under an
// unlimited-hit fault that lasts to the end of the schedule, or -1 when it
// has none. These are exactly the instances a budgeted crawler must end up
// quarantining.
func (fs *FaultSet) PersistentFrom(i int) int {
	if i < 0 || i >= len(fs.Faults) {
		return -1
	}
	for _, f := range fs.Faults[i] {
		if f.Persistent() && f.End >= fs.Slots {
			return f.Start
		}
	}
	return -1
}

// PersistentInstances lists the instances with a persistent fault reaching
// the end of the schedule, ascending.
func (fs *FaultSet) PersistentInstances() []int {
	var out []int
	for i := range fs.Faults {
		if fs.PersistentFrom(i) >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// Transient reports whether every scheduled fault is transient (bounded
// hits) — the precondition of the byte-identical convergence invariant.
func (fs *FaultSet) Transient() bool {
	for _, fl := range fs.Faults {
		for _, f := range fl {
			if f.Persistent() {
				return false
			}
		}
	}
	return true
}

// FaultConfig shapes a generated fault schedule. Generation is
// deterministic: the same config always produces the same schedule, and
// each instance draws from an independent random stream.
type FaultConfig struct {
	Seed uint64
	// Slots is the schedule length (absolute slots, like StormConfig).
	Slots int
	// Faults is the number of transient episodes per instance (0 = 1).
	Faults int
	// MinSlots is the minimum episode duration (0 = 1 slot); MeanSlots the
	// mean of the exponential tail on top (0 = no tail).
	MinSlots  int
	MeanSlots float64
	// Hits is each transient episode's per-(slot, endpoint class) failure
	// budget (0 = 2). Keep it below the crawler's per-call retry attempts
	// or the schedule stops being convergable.
	Hits int
	// WindowStart/WindowEnd bound the slots an episode may cover, clamped
	// to [0, Slots). WindowEnd 0 means Slots.
	WindowStart, WindowEnd int

	// Persistent lists instance ids that additionally get one
	// unlimited-hit Fault5xx fault covering [PersistentFrom, Slots) — the
	// domains a budgeted crawler must quarantine. Out-of-range ids are
	// ignored.
	Persistent     []int32
	PersistentFrom int
}

// GenFaultSchedule generates a fault schedule for n instances. Each
// instance draws its transient episodes from an independent PCG stream
// seeded (Seed, instance), with unconditional draws — changing one knob
// never shifts the draws of a later episode, and adding instances never
// perturbs existing ones. Persistent faults are appended verbatim from the
// config, no randomness involved.
func GenFaultSchedule(n int, cfg FaultConfig) *FaultSet {
	if n < 0 || cfg.Slots <= 0 {
		panic("sim: GenFaultSchedule needs n >= 0 and positive Slots")
	}
	faults := cfg.Faults
	if faults < 0 {
		faults = 0
	} else if faults == 0 {
		faults = 1
	}
	minSlots := cfg.MinSlots
	if minSlots <= 0 {
		minSlots = 1
	}
	hits := cfg.Hits
	if hits <= 0 {
		hits = 2
	}
	lo, hi := cfg.WindowStart, cfg.WindowEnd
	if lo < 0 {
		lo = 0
	}
	if hi <= 0 || hi > cfg.Slots {
		hi = cfg.Slots
	}
	pFrom := cfg.PersistentFrom
	if pFrom < 0 {
		pFrom = 0
	}
	if pFrom > cfg.Slots {
		pFrom = cfg.Slots
	}

	fs := &FaultSet{Slots: cfg.Slots, Faults: make([][]Fault, n)}
	persistent := make(map[int]bool, len(cfg.Persistent))
	for _, id := range cfg.Persistent {
		if id >= 0 && int(id) < n {
			persistent[int(id)] = true
		}
	}

	for i := 0; i < n; i++ {
		if hi <= lo {
			continue
		}
		window := hi - lo
		r := rand.New(rand.NewPCG(cfg.Seed, uint64(i)))
		var fl []Fault
		for k := 0; k < faults; k++ {
			// Every quantity is drawn every iteration, whether or not the
			// knob is active, to keep stream consumption identical across
			// configurations (the GenCorrelatedOutages discipline).
			dur := minSlots
			tail := int(r.ExpFloat64() * cfg.MeanSlots)
			if cfg.MeanSlots > 0 {
				dur += tail
			}
			if dur > window {
				dur = window
			}
			start := lo + r.IntN(window-dur+1)
			// Any kind but FaultNone; ra is a 429 episode's Retry-After
			// seconds.
			kind := FaultNone + 1 + FaultKind(r.IntN(int(faultKinds-FaultNone-1)))
			ra := 1 + r.IntN(8)
			fl = append(fl, Fault{
				Kind:       kind,
				Start:      start,
				End:        start + dur,
				Hits:       hits,
				RetryAfter: ra,
			})
		}
		if persistent[i] && pFrom < cfg.Slots {
			fl = append(fl, Fault{
				Kind:       Fault5xx,
				Start:      pFrom,
				End:        cfg.Slots,
				RetryAfter: 1,
			})
		}
		sort.Slice(fl, func(a, b int) bool {
			if fl[a].Start != fl[b].Start {
				return fl[a].Start < fl[b].Start
			}
			if fl[a].End != fl[b].End {
				return fl[a].End < fl[b].End
			}
			return fl[a].Kind < fl[b].Kind
		})
		fs.Faults[i] = fl
	}
	return fs
}
