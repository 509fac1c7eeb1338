package simnet

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dht"
	"repro/internal/instance"
)

// Directory runs the dormant dht.Ring as the fediverse's decentralised
// directory — the global index §5.2 assumes. Every instance is a ring
// member; presence records (the instance's federation peer list, under
// dht.PresenceKey) and replica-holder records (per-author §5.2 index
// entries, under dht.AuthorKey) are published to the key's index holders,
// and each store at a holder whose instance is down fails, so a publish
// during an outage storm visibly degrades. Liveness is driven by the
// outage injector: Sync mirrors every server's Online state into the
// ring's SetDown, making the directory live through exactly the churn the
// campaign scripts.
type Directory struct {
	// Ring is the underlying Chord-style index (exported for metrics:
	// RouteStats, Keys).
	Ring *dht.Ring

	net *instance.Network

	mu              sync.Mutex
	members         map[string]bool
	publishes       int // individual holder stores attempted
	publishFailures int // stores at a holder that was down
}

// NewDirectory builds the directory over every instance the network
// currently hosts: all domains join the ring (one bulk rebuild), and
// nothing is published yet — call PublishPresence / PublishAllPresence once
// the campaign is ready.
func NewDirectory(net *instance.Network) *Directory {
	d := &Directory{
		Ring:    dht.NewRing(dht.DefaultReplication),
		net:     net,
		members: make(map[string]bool),
	}
	domains := net.Domains()
	d.Ring.JoinAll(domains)
	for _, dom := range domains {
		d.members[dom] = true
	}
	return d
}

// Register adds a mid-campaign instance (churn: a newbie registering) to
// the ring. Known domains are a no-op.
func (d *Directory) Register(domain string) {
	d.mu.Lock()
	known := d.members[domain]
	d.members[domain] = true
	d.mu.Unlock()
	if known {
		return
	}
	d.Ring.Join(domain)
}

// Members returns the current ring membership, sorted.
func (d *Directory) Members() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.members))
	for m := range d.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Sync mirrors every member's live Online state into the ring — the
// injector applies a slot to the servers, Sync applies the same slot to
// the directory. Call it once per campaign slot, after Injector.Apply.
func (d *Directory) Sync() {
	for _, dom := range d.Members() {
		srv := d.net.Server(dom)
		d.Ring.SetDown(dom, srv == nil || !srv.Online())
	}
}

// Publish stores a record in the index at each of its holders. The record
// lands in the ring store regardless (membership-based placement — a down
// holder's copy is simply stale); a store at a holder whose instance is down
// is counted as failed, the §5 signal that the index is degrading under the
// outage being injected — a lost refresh, like a real DHT store RPC timing
// out.
func (d *Directory) Publish(key string, value []string) error {
	holders, err := d.Ring.Put(key, value)
	if err != nil {
		return err
	}
	for _, h := range holders {
		srv := d.net.Server(h)
		d.mu.Lock()
		d.publishes++
		if srv == nil || !srv.Online() {
			d.publishFailures++
		}
		d.mu.Unlock()
	}
	return nil
}

// PublishPresence publishes the domain's presence record: its current
// federation peer list, the record DHT bootstrap walks. Down instances
// cannot publish (a dead instance cannot refresh its own record — its last
// published presence lives on until its holders die too).
func (d *Directory) PublishPresence(domain string) error {
	srv := d.net.Server(domain)
	if srv == nil {
		return fmt.Errorf("directory: no server for %s", domain)
	}
	if !srv.Online() {
		return fmt.Errorf("directory: %s is down and cannot publish", domain)
	}
	return d.Publish(dht.PresenceKey(domain), srv.PeerDomains())
}

// PublishAllPresence publishes presence for every live member, in sorted
// order (deterministic bus traffic).
func (d *Directory) PublishAllPresence() error {
	for _, dom := range d.Members() {
		if srv := d.net.Server(dom); srv == nil || !srv.Online() {
			continue
		}
		if err := d.PublishPresence(dom); err != nil {
			return err
		}
	}
	return nil
}

// Resolve answers a directory lookup: the value stored under key and the
// finger-routing hop count the lookup cost. It implements
// crawler.DirectoryIndex, so a crawler can bootstrap discovery from ring
// lookups instead of snowball peering.
func (d *Directory) Resolve(key string) ([]string, int, error) {
	_, hops, err := d.Ring.Lookup(key)
	if err != nil {
		return nil, 0, err
	}
	value, _, err := d.Ring.Get(key)
	return value, hops, err
}

// Stats reports the directory's publish traffic so far.
func (d *Directory) Stats() (publishes, failures int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.publishes, d.publishFailures
}
