package instance

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/vclock"
)

// LoadOptions controls how a dataset.World is built into live servers.
type LoadOptions struct {
	// MaxTootsPerUser caps how many toot objects are materialised per user
	// (instance counters still reflect the capped number, keeping the live
	// network and the crawler's ground truth consistent). 0 means 10.
	MaxTootsPerUser int
	// OfflineGone marks servers of churned instances (GoneDay ≥ 0) offline,
	// reproducing the §3 crawl population (1.75K of 4.3K reachable).
	OfflineGone bool
	// Now is the timestamp base for loaded content.
	Now time.Time
	// Clock is the network's time source (nil = the system clock); the
	// simnet harness injects a vclock.Sim here.
	Clock vclock.Clock
}

// UserName returns the canonical account name for a world user id.
func UserName(id int32) string { return "u" + strconv.Itoa(int(id)) }

// LoadWorld builds a live network from a world: one server per instance,
// one account per user, every social edge a (local or federated) follow,
// and each user's toots on its home timeline and on the federated timeline
// of every instance that subscribes to it.
//
// The network is the one that enacting the world would leave behind — every
// account created in user order, then every follow in (follower, edge)
// order through the federation handshake, then every user's toots in (user,
// toot) order through PostToot and the bus — down to the generation
// counters behind each ETag; refLoadWorld is that enactment and
// TestLoadWorldMatchesReplay holds the two together. It is computed per
// server instead, because that order makes a server's state a function of
// the world alone: it sees, in ascending user order, the toots of its own
// users and of every public remote user one of them follows, each user's
// toots are consecutive there, and every generation is a count of events.
func LoadWorld(ctx context.Context, w *dataset.World, opts LoadOptions) (*Network, error) {
	if opts.MaxTootsPerUser <= 0 {
		opts.MaxTootsPerUser = 10
	}
	if opts.Now.IsZero() {
		opts.Now = dataset.Day(w.Days)
	}
	n := NewNetworkClock(opts.Clock)

	ld := &loader{
		w:       w,
		maxT:    opts.MaxTootsPerUser,
		nowNano: opts.Now.UnixNano(),
		servers: make([]*Server, len(w.Instances)),
		plans:   make([]serverPlan, len(w.Instances)),
		users:   w.InstanceUsers(),
		order:   make([]int32, len(w.Instances)),
		names:   make([]string, len(w.Users)),
		firstID: make([]int64, len(w.Users)),
	}
	for i := range w.Instances {
		in := &w.Instances[i]
		if in.Domain == "" || n.Server(in.Domain) != nil {
			return nil, fmt.Errorf("instance: world has an empty or repeated domain %q", in.Domain)
		}
		srv := n.Add(Config{
			Domain:      in.Domain,
			Software:    string(in.Software),
			Open:        in.Open,
			BlocksCrawl: in.BlocksCrawl,
		})
		if opts.OfflineGone && in.GoneDay >= 0 {
			srv.SetOnline(false)
		}
		ld.servers[i] = srv
	}
	for s := range ld.order {
		ld.order[s] = int32(s)
	}
	slices.SortStableFunc(ld.order, func(a, b int32) int { return len(ld.users[b]) - len(ld.users[a]) })

	// Two passes with a barrier between them: a remote toot's note id is its
	// id on its author's home server, which the first pass assigns.
	workers := make([]loadScratch, min(runtime.GOMAXPROCS(0), len(w.Instances)))
	ld.eachServer(workers, ld.plan)
	dup := int32(-1)
	for s := range ld.plans {
		if d := ld.plans[s].dupUser; d >= 0 && (dup < 0 || d < dup) {
			dup = d
		}
	}
	if dup >= 0 {
		return nil, errAccountExists(w.Instances[w.Users[dup].Instance].Domain, ld.names[dup])
	}
	ld.eachServer(workers, ld.fill)
	return n, nil
}

// loader is the state the two passes of one LoadWorld share. names and
// firstID are written by a user's home server in the first pass and read by
// any server in the second.
type loader struct {
	w       *dataset.World
	maxT    int
	nowNano int64
	servers []*Server
	plans   []serverPlan

	users [][]int32 // by instance, ascending
	order []int32   // servers, most users first, so that the last to finish is short

	names   []string // account name by user index
	firstID []int64  // id of the user's first toot on its home server
}

// serverPlan is what the first pass leaves the second for one server.
type serverPlan struct {
	// actors lists the users the server interns, in intern order: the
	// authors whose toots it sees, ascending, then its users' remaining
	// followers.
	actors  []int32
	authors int   // actors[:authors] are the authors
	dupUser int32 // first user whose account name was taken, or -1
}

// loadScratch is one worker's reusable memory.
type loadScratch struct {
	slot    []uint64 // by user: (server+1)<<32 | intern index; never cleared
	subs    []int32  // by instance: one user's followers there; zero between users
	subsAt  []int32  // instances with subs != 0
	peers   []int32  // by instance: relationships with it; zero between servers
	peersAt []int32  // instances with peers != 0
	actors  []int32
	dcs     []federation.DomainCount // one user's subscriber list, sorted, then copied out
	store   tootStore                // rows are written here, then copied out exactly sized
}

// eachServer runs fn once per server on len(workers) goroutines.
func (ld *loader) eachServer(workers []loadScratch, fn func(sc *loadScratch, s int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(sc *loadScratch) {
			defer wg.Done()
			if sc.slot == nil {
				sc.slot = make([]uint64, len(ld.w.Users))
				sc.subs = make([]int32, len(ld.w.Instances))
				sc.peers = make([]int32, len(ld.w.Instances))
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ld.order) {
					return
				}
				fn(sc, int(ld.order[i]))
			}
		}(&workers[i])
	}
	wg.Wait()
}

// toots returns how many of user u's toots are materialised.
func (ld *loader) toots(u int32) int { return max(0, min(int(ld.w.Users[u].Toots), ld.maxT)) }

func (ld *loader) domainOf(u int32) string { return ld.w.Instances[ld.w.Users[u].Instance].Domain }

// plan is the first pass for server s: accounts, follower lists,
// subscription tables, counters and generations, and the order in which the
// server sees authors, which fixes every toot id.
func (ld *loader) plan(sc *loadScratch, s int) {
	w, srv, p := ld.w, ld.servers[s], &ld.plans[s]
	users := ld.users[s]
	tag := uint64(s+1) << 32
	p.dupUser = -1

	// Authors: every local user with toots, and every public remote user
	// with toots that a local user follows. A remote follow also makes the
	// target's instance a peer.
	actors := sc.actors[:0]
	inEdges, remoteOut := 0, 0
	for _, f := range users {
		if ld.toots(f) > 0 {
			actors = append(actors, f)
		}
		inEdges += w.Social.InDegree(f)
		for _, v := range w.Social.Out(f) {
			t := &w.Users[v]
			if int(t.Instance) == s {
				continue
			}
			remoteOut++
			if sc.peers[t.Instance]++; sc.peers[t.Instance] == 1 {
				sc.peersAt = append(sc.peersAt, t.Instance)
			}
			if !t.Private && ld.toots(v) > 0 {
				actors = append(actors, v)
			}
		}
	}
	slices.Sort(actors)
	actors = slices.Compact(actors)
	p.authors = len(actors)
	var statuses, nextID int64
	for i, a := range actors {
		sc.slot[a] = tag | uint64(i)
		if int(w.Users[a].Instance) == s {
			ld.firstID[a] = nextID + 1
			statuses += int64(ld.toots(a))
		}
		nextID += int64(ld.toots(a))
	}

	// Accounts and their follower lists, one slab each; a list is cut with
	// no spare capacity, so a later follow copies it out instead of growing
	// into its neighbour.
	accounts := make(map[string]*Account, len(users))
	accts := make([]Account, len(users))
	followers := make([]uint32, inEdges)
	subscribers := make(map[string][]federation.DomainCount)
	dcs := sc.dcs[:0]
	remoteIn := 0
	for i, v := range users {
		u := &w.Users[v]
		name := UserName(u.ID)
		ld.names[v] = name
		in := w.Social.In(v)
		a := &accts[i]
		*a = Account{
			Name:      name,
			CreatedAt: dataset.Day(int(u.JoinDay)),
			Private:   u.Private,
			followers: followers[:len(in):len(in)],
			following: w.Social.OutDegree(v),
			toots:     ld.toots(v),
		}
		followers = followers[len(in):]
		accounts[name] = a
		for j, f := range in {
			if sc.slot[f]>>32 != uint64(s+1) {
				sc.slot[f] = tag | uint64(len(actors))
				actors = append(actors, f)
			}
			a.followers[j] = uint32(sc.slot[f])
			if fi := w.Users[f].Instance; int(fi) != s {
				if sc.subs[fi]++; sc.subs[fi] == 1 {
					sc.subsAt = append(sc.subsAt, fi)
				}
			}
		}
		dcs = dcs[:0]
		for _, fi := range sc.subsAt {
			c := sc.subs[fi]
			sc.subs[fi] = 0
			dcs = append(dcs, federation.DomainCount{Domain: w.Instances[fi].Domain, Count: int(c)})
			remoteIn += int(c)
			if sc.peers[fi] == 0 {
				sc.peersAt = append(sc.peersAt, fi)
			}
			sc.peers[fi] += c
		}
		sc.subsAt = sc.subsAt[:0]
		if len(dcs) > 0 {
			slices.SortFunc(dcs, func(a, b federation.DomainCount) int { return strings.Compare(a.Domain, b.Domain) })
			subscribers[name] = slices.Clone(dcs)
		}
	}
	sc.dcs = dcs
	if len(accounts) != len(users) {
		seen := make(map[string]bool, len(users))
		for _, v := range users {
			if seen[ld.names[v]] {
				p.dupUser = v
				break
			}
			seen[ld.names[v]] = true
		}
	}
	peers := make(map[string]int, len(sc.peersAt))
	for _, pi := range sc.peersAt {
		peers[w.Instances[pi].Domain] = int(sc.peers[pi])
		sc.peers[pi] = 0
	}
	sc.peersAt = sc.peersAt[:0]

	srv.accounts = accounts
	srv.subs = federation.RestoreSubscriptions(subscribers, peers, remoteOut)
	srv.statuses, srv.nextID = statuses, nextID
	// One generation per event that invalidated the kind: an account, a
	// remote follow at either end and a local toot for the metadata pages;
	// a local toot; any toot; a follow of a local account.
	srv.pages.gens[kindMeta].Store(uint64(len(users)+remoteOut+remoteIn) + uint64(statuses))
	srv.pages.gens[kindLocal].Store(uint64(statuses))
	srv.pages.gens[kindFederated].Store(uint64(nextID))
	srv.pages.gens[kindFollowers].Store(uint64(inEdges))

	p.actors = slices.Clone(actors)
	sc.actors = actors
}

// loadTags is what every fifth toot of a user is tagged with.
var loadTags = []string{"fediverse"}

// fill is the second pass for server s: the actor table and the toot store.
// Rows go through the store's own writers into the worker's scratch store,
// which is then copied out, so the resting slabs carry no growth slack.
func (ld *loader) fill(sc *loadScratch, s int) {
	w, srv, p := ld.w, ld.servers[s], &ld.plans[s]
	st := &srv.store
	st.actors = make([]federation.Actor, 0, len(p.actors))
	st.sizeIndex(len(p.actors))
	for _, u := range p.actors {
		st.intern(federation.Actor{User: ld.names[u], Domain: ld.domainOf(u)})
	}

	tmp := &sc.store
	tmp.arena, tmp.rows, tmp.local, tmp.federated = tmp.arena[:0], tmp.rows[:0], tmp.local[:0], tmp.federated[:0]
	// Ids at or below cutoff have been trimmed off the federated timeline by
	// the time the last toot lands: such a remote row is never stored (its
	// id is still spent), such a local row lives on the local timeline only.
	maxFed := srv.cfg.MaxFederated
	cutoff := srv.nextID - int64(maxFed)
	var id int64
	for i, a := range p.actors[:p.authors] {
		name, count := ld.names[a], ld.toots(a)
		remote := int(w.Users[a].Instance) != s
		for k := 0; k < count; k++ {
			if id++; remote && id <= cutoff {
				continue
			}
			var tags []string
			if k%5 == 0 {
				tags = loadTags
			}
			flags, off := tmp.openText("", tags)
			tmp.arena = append(tmp.arena, "toot "...)
			tmp.arena = strconv.AppendInt(tmp.arena, int64(k), 10)
			tmp.arena = append(tmp.arena, " from "...)
			tmp.arena = append(tmp.arena, name...)
			var note uint64
			if remote {
				flags, note = flags|tootRemote|tootNoteNum, uint64(ld.firstID[a]+int64(k))
			} else {
				flags |= tootSynthNote
			}
			at := ld.nowNano - int64(count-k)*int64(time.Minute)
			ri := tmp.addRow(id, at, uint32(i), flags, tmp.since(off), note)
			if !remote {
				tmp.pushLocal(ri)
			}
			if id > cutoff {
				tmp.appendFederated(ri, maxFed)
			}
		}
	}
	st.arena, st.rows = slices.Clone(tmp.arena), slices.Clone(tmp.rows)
	st.local, st.federated = slices.Clone(tmp.local), slices.Clone(tmp.federated)
	p.actors = nil
}
