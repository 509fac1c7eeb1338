// Package dht implements the distributed global toot index that §5.2 of
// the paper assumes twice ("we assume the presence of a global index (such
// as a Distributed Hash Table) to discover toots in such replicas",
// citing Tapestry): a Chord-style consistent-hashing ring over instance
// domains with finger-table routing and successor-list replication of
// index entries.
//
// The ring stores, for each key (e.g. a toot or author id), the list of
// instances holding replicas. Lookups route greedily through finger tables
// (O(log n) hops); entries are replicated onto the key's first
// ReplicationFactor distinct successors so the index itself survives the
// instance failures studied in §5.
//
// # Placement and liveness model
//
// Placement is membership-based: a key's holders are its first k distinct
// ring members, up or down. Marking a node down (SetDown, the §5 failure
// model) does not move its keyspace — the copies it holds simply become
// unreachable until it recovers, so Put may name down holders and Get
// serves from whichever holder is currently up. Members never leave: a
// departed instance is a member that stays down. The invariant the
// property tests pin: a stored key is Get-able iff at least one of its
// current holders (Holders) is up.
package dht

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultReplication is the successor-list replication factor for index
// entries.
const DefaultReplication = 3

// PresenceKey is the well-known directory key under which an instance
// publishes its presence record (its federation peer list) — the record a
// DHT-bootstrapped crawler walks instead of fetching live peer lists.
func PresenceKey(domain string) string { return "instance:" + domain }

// AuthorKey is the directory key under which an author's replica-holder
// record (the §5.2 global toot index entry) is published.
func AuthorKey(id int32) string { return fmt.Sprintf("author:%d", id) }

// fnvKey maps a string onto the 64-bit identifier ring.
func fnvKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// node is one ring participant.
type node struct {
	id     uint64
	name   string
	finger []int // indexes into the sorted ring, successor(id + 2^j)
}

// Ring is a Chord-style DHT over named nodes. All methods are safe for
// concurrent use; read paths (Lookup, Get, Holders, RouteStats) share a
// read lock and never block each other.
type Ring struct {
	mu          sync.RWMutex
	replication int
	hash        func(string) uint64 // test hook; fnvKey in production
	nodes       []*node             // sorted by id
	byName      map[string]*node
	down        map[string]bool
	store       map[uint64][]entry // key hash → collision chain of entries
}

type entry struct {
	key   string
	value []string // e.g. replica-holding instance domains
}

// NewRing returns an empty ring with the given index replication factor
// (≤0 means DefaultReplication).
func NewRing(replication int) *Ring {
	if replication <= 0 {
		replication = DefaultReplication
	}
	return &Ring{
		replication: replication,
		hash:        fnvKey,
		byName:      make(map[string]*node),
		down:        make(map[string]bool),
		store:       make(map[uint64][]entry),
	}
}

// Replication returns the ring's index replication factor.
func (r *Ring) Replication() int { return r.replication }

// Join adds a node to the ring and rebuilds every finger table, so lookups
// need only a read lock. Joining an existing name is a no-op.
func (r *Ring) Join(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.joinLocked(name) {
		r.rebuildFingers()
	}
}

// JoinAll adds many nodes under one lock with a single finger rebuild —
// Join is O(n·64·log n) per call because of the eager rebuild, so bulk
// ring construction should use JoinAll.
func (r *Ring) JoinAll(names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := false
	for _, name := range names {
		if r.joinLocked(name) {
			changed = true
		}
	}
	if changed {
		r.rebuildFingers()
	}
}

// joinLocked inserts the node and reports whether the membership changed.
func (r *Ring) joinLocked(name string) bool {
	if _, ok := r.byName[name]; ok {
		return false
	}
	n := &node{id: r.hash("node:" + name), name: name}
	r.byName[name] = n
	r.nodes = append(r.nodes, n)
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].id < r.nodes[j].id })
	return true
}

// SetDown marks a node as failed (true) or recovered (false) without
// removing it from the ring — the §5 failure model. A down node keeps its
// keyspace; the index copies it holds are unreachable until recovery.
func (r *Ring) SetDown(name string, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return
	}
	if down {
		r.down[name] = true
	} else {
		delete(r.down, name)
	}
}

// Down reports whether the named member is marked failed. Unknown names
// report false.
func (r *Ring) Down(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.down[name]
}

// Size returns the number of ring members (up or down).
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Keys returns every stored key, sorted — the scenario's sampling frame.
func (r *Ring) Keys() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.store))
	for _, chain := range r.store {
		for _, e := range chain {
			out = append(out, e.key)
		}
	}
	sort.Strings(out)
	return out
}

// successorIndex returns the position of the first node with id ≥ h
// (wrapping).
func (r *Ring) successorIndex(h uint64) int {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= h })
	if i == len(r.nodes) {
		return 0
	}
	return i
}

// rebuildFingers recomputes every node's finger table. O(n · 64 · log n);
// called eagerly from Join/JoinAll under the write lock so the read
// paths never mutate.
func (r *Ring) rebuildFingers() {
	for _, n := range r.nodes {
		n.finger = n.finger[:0]
		for j := 0; j < 64; j++ {
			target := n.id + (uint64(1) << uint(j)) // wrapping addition
			n.finger = append(n.finger, r.successorIndex(target))
		}
	}
}

// distance is the clockwise distance from a to b on the ring.
func distance(a, b uint64) uint64 { return b - a } // uint64 wraparound is exactly ring arithmetic

// Lookup routes from an arbitrary start node to the key's successor,
// returning the owner name and the hop count. It errors on an empty ring.
func (r *Ring) Lookup(key string) (owner string, hops int, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return "", 0, fmt.Errorf("dht: lookup on empty ring")
	}
	h := r.hash(key)
	target := r.nodes[r.successorIndex(h)]
	// Route greedily from a deterministic start (the key hash rotated, so
	// different keys start at different nodes).
	cur := r.nodes[r.successorIndex(h*0x9e3779b97f4a7c15+1)]
	for cur != target {
		// Jump to the finger that gets closest to (but not past) the key's
		// successor; fall back to immediate successor.
		best := r.nodes[(r.successorIndex(cur.id+1))%len(r.nodes)]
		bestDist := distance(best.id, target.id)
		for _, fi := range cur.finger {
			f := r.nodes[fi]
			if f == cur {
				continue
			}
			// f must not overshoot: distance(cur→f) ≤ distance(cur→target).
			if distance(cur.id, f.id) <= distance(cur.id, target.id) {
				if d := distance(f.id, target.id); d <= bestDist {
					best, bestDist = f, d
				}
			}
		}
		if best == cur {
			break
		}
		cur = best
		hops++
	}
	return target.name, hops, nil
}

// replicaNodes returns the first k distinct ring members responsible for h.
func (r *Ring) replicaNodes(h uint64) []*node {
	k := r.replication
	if k > len(r.nodes) {
		k = len(r.nodes)
	}
	out := make([]*node, 0, k)
	i := r.successorIndex(h)
	for len(out) < k {
		out = append(out, r.nodes[(i+len(out))%len(r.nodes)])
	}
	return out
}

// Holders returns the names of the ring members currently responsible for
// key — its first ReplicationFactor distinct successors, up or down (see
// the package's placement model). It errors on an empty ring.
func (r *Ring) Holders(key string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return nil, fmt.Errorf("dht: holders on empty ring")
	}
	return r.holderNamesLocked(r.hash(key)), nil
}

func (r *Ring) holderNamesLocked(h uint64) []string {
	nodes := r.replicaNodes(h)
	holders := make([]string, len(nodes))
	for i, n := range nodes {
		holders[i] = n.name
	}
	return holders
}

// Put stores the value under key, replicated onto the key's successor
// list, and returns the names of the index holders. Placement ignores
// liveness (see the package's placement model): a down member stays a
// holder, its copy unreachable until recovery, so putting before or after
// a SetDown yields identical Get behaviour. Storing an existing key
// replaces its value. It errors on an empty ring.
func (r *Ring) Put(key string, value []string) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.nodes) == 0 {
		return nil, fmt.Errorf("dht: put on empty ring")
	}
	h := r.hash(key)
	e := entry{key: key, value: append([]string(nil), value...)}
	chain := r.store[h]
	replaced := false
	for i := range chain {
		// Same 64-bit hash, same key: replace. Different keys that collide
		// share the chain — the second Put must not clobber the first.
		if chain[i].key == key {
			chain[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		chain = append(chain, e)
	}
	r.store[h] = chain
	return r.holderNamesLocked(h), nil
}

// Get retrieves the value for key. It fails when the key is absent or when
// every index replica holder is down (the index itself has become
// unreachable). attempts reports how many holders were tried.
func (r *Ring) Get(key string) (value []string, attempts int, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return nil, 0, fmt.Errorf("dht: empty ring")
	}
	h := r.hash(key)
	var e *entry
	chain := r.store[h]
	for i := range chain {
		if chain[i].key == key {
			e = &chain[i]
			break
		}
	}
	if e == nil {
		return nil, 0, fmt.Errorf("dht: key %q not found", key)
	}
	for _, n := range r.replicaNodes(h) {
		attempts++
		if !r.down[n.name] {
			return append([]string(nil), e.value...), attempts, nil
		}
	}
	return nil, attempts, fmt.Errorf("dht: all %d index replicas of %q are down", attempts, key)
}

// Stats summarises routing efficiency over a sample of keys.
type Stats struct {
	Keys     int
	MeanHops float64
	MaxHops  int
}

// RouteStats measures lookup hop counts for n synthetic keys — the
// O(log N) routing property. An empty ring yields zero stats.
func (r *Ring) RouteStats(n int) Stats {
	s := Stats{}
	total := 0
	for i := 0; i < n; i++ {
		_, hops, err := r.Lookup(fmt.Sprintf("probe-key-%d", i))
		if err != nil {
			break
		}
		s.Keys++
		total += hops
		if hops > s.MaxHops {
			s.MaxHops = hops
		}
	}
	if s.Keys > 0 {
		s.MeanHops = float64(total) / float64(s.Keys)
	}
	return s
}
