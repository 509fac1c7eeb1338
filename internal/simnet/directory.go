package simnet

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/instance"
)

// Directory runs the dormant dht.Ring as the fediverse's decentralised
// directory — the global index §5.2 assumes. Every instance is a ring
// member; presence records (the instance's federation peer list, under
// dht.PresenceKey) and replica-holder records (per-author §5.2 index
// entries, under dht.AuthorKey) are published to the key's index holders
// over a federation bus: each delivery fails when the holder's instance is
// down, so a publish during an outage storm visibly degrades. Liveness is driven by the
// outage injector: Sync mirrors every server's Online state into the
// ring's SetDown, making the directory live through exactly the churn the
// campaign scripts.
//
// The bus the records ride is the directory's own overlay (one inbox per
// ring member) — the DHT's RPC plane, kept separate from the ActivityPub
// traffic so directory chatter never competes with Follow/Create deliveries.
type Directory struct {
	// Ring is the underlying Chord-style index (exported for metrics:
	// RouteStats, Keys).
	Ring *dht.Ring

	net *instance.Network
	bus *federation.Bus

	mu              sync.Mutex
	members         map[string]bool
	publishes       int // individual holder deliveries attempted
	publishFailures int // deliveries refused (holder down)
}

// NewDirectory builds the directory over every instance the network
// currently hosts: all domains join the ring (one bulk rebuild), each gets
// an overlay inbox, and nothing is published yet — call PublishPresence /
// PublishAll once the campaign is ready.
func NewDirectory(net *instance.Network) *Directory {
	d := &Directory{
		Ring:    dht.NewRing(dht.DefaultReplication),
		net:     net,
		bus:     federation.NewBus(),
		members: make(map[string]bool),
	}
	domains := net.Domains()
	d.Ring.JoinAll(domains)
	for _, dom := range domains {
		d.members[dom] = true
		d.bus.Register(&dirNode{domain: dom, net: net})
	}
	return d
}

// dirNode is one ring member's shard inbox on the overlay bus. It accepts
// record deliveries only while its instance is up — a publish to a down
// holder is a lost refresh, exactly like a real DHT store RPC timing out.
type dirNode struct {
	domain string
	net    *instance.Network
}

func (n *dirNode) Domain() string { return n.domain }

func (n *dirNode) Receive(ctx context.Context, a *federation.Activity) error {
	srv := n.net.Server(n.domain)
	if srv == nil || !srv.Online() {
		return fmt.Errorf("dht: index holder %s is down", n.domain)
	}
	return nil
}

// Register adds a mid-campaign instance (churn: a newbie registering) to
// the ring and the overlay bus. Known domains are a no-op.
func (d *Directory) Register(domain string) {
	d.mu.Lock()
	known := d.members[domain]
	d.members[domain] = true
	d.mu.Unlock()
	if known {
		return
	}
	d.Ring.Join(domain)
	d.bus.Register(&dirNode{domain: domain, net: d.net})
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

// Publish stores a record in the index and pushes it to each index holder
// over the overlay bus. The record lands in the ring store regardless
// (membership-based placement — a down holder's copy is simply stale);
// failed deliveries are counted, the §5 signal that the index is degrading
// under the outage being injected.
func (d *Directory) Publish(ctx context.Context, source, key string, value []string) error {
	holders, err := d.Ring.Put(key, value)
	if err != nil {
		return err
	}
	a := &federation.Activity{
		Type: federation.TypeCreate,
		From: federation.Actor{User: "dht", Domain: source},
		Note: &federation.Note{ID: key, Content: strings.Join(value, " "), CreatedAt: d.net.Clock().Now()},
	}
	for _, h := range holders {
		d.mu.Lock()
		d.publishes++
		d.mu.Unlock()
		if err := d.bus.Deliver(ctx, h, a); err != nil {
			d.mu.Lock()
			d.publishFailures++
			d.mu.Unlock()
		}
	}
	return nil
}

// PublishPresence publishes the domain's presence record: its current
// federation peer list, the record DHT bootstrap walks. Down instances
// cannot publish (a dead instance cannot refresh its own record — its last
// published presence lives on until its holders die too).
func (d *Directory) PublishPresence(ctx context.Context, domain string) error {
	srv := d.net.Server(domain)
	if srv == nil {
		return fmt.Errorf("directory: no server for %s", domain)
	}
	if !srv.Online() {
		return fmt.Errorf("directory: %s is down and cannot publish", domain)
	}
	return d.Publish(ctx, domain, dht.PresenceKey(domain), srv.PeerDomains())
}

// PublishAllPresence publishes presence for every live member, in sorted
// order (deterministic bus traffic).
func (d *Directory) PublishAllPresence(ctx context.Context) error {
	for _, dom := range d.Members() {
		if srv := d.net.Server(dom); srv == nil || !srv.Online() {
			continue
		}
		if err := d.PublishPresence(ctx, dom); err != nil {
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
