package crawler

import (
	"context"
	"sort"
	"sync"

	"repro/internal/wire"
)

// Discoverer performs snowball instance discovery: starting from seed
// domains, it fetches each instance's peer list (/api/v1/instance/peers)
// and keeps expanding until no new domains appear — how public instance
// indexes like the one the paper used (mnm.social) are bootstrapped.
type Discoverer struct {
	Client   *Client
	Workers  int // concurrent peer fetches (0 = 8)
	MaxHosts int // safety cap on the discovered set (0 = 100000)
}

// Discover returns all reachable domains found from the seeds, sorted.
// Unreachable domains are kept in the result only if they were seeds: a
// discovered peer whose peer-list fetch fails is dropped (fediverse peer
// lists routinely advertise dead domains), while a seed is the caller's
// assertion that the domain belongs in the report either way.
//
// The result is deterministic for a given network even when MaxHosts
// truncates discovery: each round's newly seen peers are admitted in
// sorted order, so the cap always cuts the same domains regardless of
// Workers or goroutine scheduling.
func (d *Discoverer) Discover(ctx context.Context, seeds []string) []string {
	workers := d.Workers
	if workers < 1 {
		workers = 8
	}
	return discoveryWalk(ctx, seeds, d.MaxHosts, func(ctx context.Context, frontier []string) (found, failed []string) {
		var mu sync.Mutex
		forEach(ctx, len(frontier), workers, nil, func(ctx context.Context, i int) error {
			domain := frontier[i]
			bp := getBuf()
			// Decode inside the integrity check so a corrupt peer list is
			// retried rather than dropping the whole domain from discovery.
			var peers []string
			body, err := d.Client.GetChecked(ctx, domain, "/api/v1/instance/peers", *bp, func(b []byte) error {
				var derr error
				peers, derr = wire.DecodePeers(b, peers[:0])
				return derr
			})
			putBuf(bp, body)
			mu.Lock()
			if err != nil {
				failed = append(failed, domain)
			} else {
				found = append(found, peers...)
			}
			mu.Unlock()
			return err
		})
		return found, failed
	})
}

// discoveryWalk is the breadth-first walk behind both discovery sources.
// Seeds are admitted in the order given; round fetches one frontier's peer
// lists, from wherever its source keeps them, and names the frontier
// domains it could not fetch. A round only gathers: admission to the
// discovered set happens after it, in sorted order, so maxHosts (0 = 100000)
// cuts the same domains whatever order round worked in. The result is
// sorted, without the domains whose fetch failed unless they were seeds.
func discoveryWalk(ctx context.Context, seeds []string, maxHosts int,
	round func(ctx context.Context, frontier []string) (found, failed []string)) []string {
	if maxHosts <= 0 {
		maxHosts = 100000
	}
	seedSet := make(map[string]struct{}, len(seeds))
	for _, s := range seeds {
		seedSet[s] = struct{}{}
	}
	known := make(map[string]struct{})
	admit := func(frontier, candidates []string) []string {
		for _, c := range candidates {
			if _, ok := known[c]; !ok && len(known) < maxHosts {
				known[c] = struct{}{}
				frontier = append(frontier, c)
			}
		}
		return frontier
	}

	failed := make(map[string]struct{})
	frontier := admit(make([]string, 0, len(seeds)), seeds)
	for len(frontier) > 0 && ctx.Err() == nil {
		found, bad := round(ctx, frontier)
		for _, dom := range bad {
			failed[dom] = struct{}{}
		}
		sort.Strings(found)
		frontier = admit(frontier[:0], found)
	}

	out := make([]string, 0, len(known))
	for dom := range known {
		if _, bad := failed[dom]; bad {
			if _, isSeed := seedSet[dom]; !isSeed {
				continue
			}
		}
		out = append(out, dom)
	}
	sort.Strings(out)
	return out
}
