package crawler

import (
	"context"
	"sort"

	"repro/internal/dht"
)

// DirectoryIndex is the decentralised directory a DHT-bootstrapped crawl
// reads: Resolve returns the value stored under a key and the finger-route
// hop count the lookup cost (simnet.Directory implements it over dht.Ring).
type DirectoryIndex interface {
	Resolve(key string) (value []string, hops int, err error)
}

// DHTBootstrap discovers instances from the decentralised directory
// instead of snowball peer-list crawling: starting from seed domains it
// walks presence records (each instance's published federation peer list,
// keyed by dht.PresenceKey) breadth-first through the ring. Where the
// snowball crawl needs every discovered instance to be up to serve
// /api/v1/instance/peers, the DHT walk only needs the record's index
// holders up — a down instance is still discoverable as long as its last
// published presence survives in the ring, the §5.2 argument for a global
// decentralised index.
type DHTBootstrap struct {
	Index    DirectoryIndex
	MaxHosts int // safety cap on the discovered set (0 = 100000)
}

// Discover returns all domains reachable through presence records from the
// seeds, sorted. Mirroring Discoverer.Discover: a domain whose presence
// record cannot be resolved (never published, or every index holder down)
// is dropped unless it was a seed, and each round's newly seen peers are
// admitted in sorted order so MaxHosts truncation is deterministic. Seeds
// are admitted in sorted order too.
func (d *DHTBootstrap) Discover(ctx context.Context, seeds []string) []string {
	sorted := append([]string(nil), seeds...)
	sort.Strings(sorted)
	return discoveryWalk(ctx, sorted, d.MaxHosts, func(_ context.Context, frontier []string) (found, failed []string) {
		for _, domain := range frontier {
			peers, _, err := d.Index.Resolve(dht.PresenceKey(domain))
			if err != nil {
				failed = append(failed, domain)
			} else {
				found = append(found, peers...)
			}
		}
		return found, failed
	})
}
