package scenario

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The steps more than one scenario takes, written once.

const (
	// tootCap is every scenario's MaxTootsPerUser.
	tootCap = 3
	// tailSlots is the pinned storm over the final crawl window (2h).
	tailSlots = 24
)

// baseOptions is the harness every scenario but chaos-storm runs on: a
// small world's worth of toots and two retries.
var baseOptions = simnet.Options{MaxTootsPerUser: tootCap, Retries: 2}

// quietWorld builds a tiny world of the given size with the generator's
// own correlated outages — the mass certificate expiry and the Table 1 AS
// outages — turned off, so the scenario's script is the only correlated
// signal.
func quietWorld(instances, users, days int) func(seed uint64) *dataset.World {
	return func(seed uint64) *dataset.World {
		cfg := gen.TinyConfig(seed)
		cfg.Instances, cfg.Users, cfg.Days = instances, users, days
		cfg.MassExpiryDay = -1
		cfg.ASOutages = nil
		return gen.Generate(cfg)
	}
}

// online reports whether domain's server exists and is up right now.
func (r *Run) online(domain string) bool {
	srv := r.H.Net.Server(domain)
	return srv != nil && srv.Online()
}

// pickAnchors picks one public, tooting user on each of the first n
// instances that qualify — the accounts a newbie federates with, or fresh
// content is posted by.
func pickAnchors(w *dataset.World, n int, qualifies func(i int) bool) ([]federation.Actor, error) {
	out := make([]federation.Actor, 0, n)
	for i := range w.Instances {
		if len(out) == n {
			break
		}
		if !qualifies(i) {
			continue
		}
		for ui := range w.Users {
			if u := &w.Users[ui]; int(u.Instance) == i && !u.Private && u.Toots > 0 {
				out = append(out, federation.Actor{User: instance.UserName(u.ID), Domain: w.Instances[i].Domain})
				break
			}
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d of %d anchor instances qualify and have a public tooting user", len(out), n)
	}
	return out, nil
}

// registerNewbie brings up newbie-<k>.sim, an open instance whose one
// account n<k> posts tootCap toots at at, and federates it both ways with
// every anchor: the newbie's follows make the anchors its peers, and the
// Follow handshakes put the newbie on the anchors' peer lists — which is
// all a snowball discoverer gets. It returns the newbie's domain.
func registerNewbie(ctx context.Context, r *Run, k int, at time.Time, anchors []federation.Actor) (string, error) {
	domain := fmt.Sprintf("newbie-%d.sim", k)
	acct := fmt.Sprintf("n%d", k)
	srv := r.H.Net.Add(instance.Config{Domain: domain, Software: "mastodon", Open: true})
	if _, err := srv.CreateAccount(acct, false, true, at); err != nil {
		return "", err
	}
	for i := 0; i < tootCap; i++ {
		content := fmt.Sprintf("toot %d from %s", i, acct)
		if _, err := srv.PostToot(ctx, acct, content, nil, at.Add(time.Duration(i)*time.Minute)); err != nil {
			return "", err
		}
	}
	for _, anchor := range anchors {
		if err := srv.FollowRemote(ctx, acct, anchor); err != nil {
			return "", err
		}
		if err := r.H.Net.Server(anchor.Domain).FollowRemote(ctx, anchor.User, federation.Actor{User: acct, Domain: domain}); err != nil {
			return "", err
		}
	}
	return domain, nil
}

// newbieSlot is the slot of the first discovery round that found a newbie
// instance (-1 if none did).
func newbieSlot(rep *Report) int {
	for _, d := range rep.Discoveries {
		for _, f := range d.Found {
			if strings.HasPrefix(f, "newbie-") {
				return d.Slot
			}
		}
	}
	return -1
}

// stormOverlay generates two AS-wide storms of groups inside slots
// [from, to-tailSlots) and pins one more storm of the largest group over
// [to-tailSlots, to) — the crawl window, so the §3 crawl phase itself runs
// against a fresh correlated failure. The pinned storm is listed last.
func stormOverlay(w *dataset.World, seed uint64, groups [][]int32, from, to int) (*sim.TraceSet, []sim.Storm) {
	overlay, storms := sim.GenCorrelatedOutages(len(w.Instances), groups, sim.StormConfig{
		Seed:          seed,
		Slots:         w.NumSlots(),
		SlotsPerDay:   dataset.SlotsPerDay,
		Storms:        2,
		MinSlots:      18,
		MeanSlots:     30,
		Participation: 1, // AS-wide: every member fails together
		WindowStart:   from,
		WindowEnd:     to - tailSlots,
	})
	tail := sim.Storm{Start: to - tailSlots, End: to, Members: append([]int32(nil), groups[0]...)}
	for _, id := range tail.Members {
		overlay.Traces[id].SetDownRange(tail.Start, tail.End)
	}
	return overlay, append(storms, tail)
}

// finalDown is the down mask the last probe round measured over the first
// n domains, and how many of them it found down.
func finalDown(res *simnet.CampaignResult, n int) ([]bool, int) {
	last := res.Traces.Slots() - 1
	down, dead := make([]bool, n), 0
	for i := range down {
		if down[i] = res.Traces.Traces[i].IsDown(last); down[i] {
			dead++
		}
	}
	return down, dead
}

// sameBytes reports whether two worlds save to the same bytes.
func sameBytes(a, b *dataset.World) (bool, error) {
	var ab, bb bytes.Buffer
	if err := a.Save(&ab); err != nil {
		return false, err
	}
	if err := b.Save(&bb); err != nil {
		return false, err
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes()), nil
}

// topASGroups returns the instance-id groups of the n largest ASes hosting
// at least two instances, biggest first (ties towards the smaller ASN).
func topASGroups(w *dataset.World, n int) [][]int32 {
	byAS := w.ASInstances()
	asns := make([]int, 0, len(byAS))
	for asn, ids := range byAS {
		if len(ids) >= 2 {
			asns = append(asns, asn)
		}
	}
	sort.Slice(asns, func(i, j int) bool {
		a, b := asns[i], asns[j]
		if len(byAS[a]) != len(byAS[b]) {
			return len(byAS[a]) > len(byAS[b])
		}
		return a < b
	})
	if len(asns) > n {
		asns = asns[:n]
	}
	groups := make([][]int32, len(asns))
	for i, asn := range asns {
		groups[i] = byAS[asn]
	}
	return groups
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
