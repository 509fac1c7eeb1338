package instance

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/vclock"
)

// Network hosts many instances in one process, multiplexed by Host header,
// federating over an in-process bus. It is the live counterpart of a
// dataset.World: LoadWorld replays a generated world into running servers so
// the measurement toolkit can crawl a real HTTP fediverse. Registration and
// serving are safe to interleave: instances can join (or churn) while the
// crawler is mid-flight, exactly like the live fediverse.
type Network struct {
	Bus *federation.Bus

	mu      sync.RWMutex
	clk     vclock.Clock
	servers map[string]*Server
	domains []string
}

// NewNetwork returns an empty network on the system clock.
func NewNetwork() *Network {
	return NewNetworkClock(nil)
}

// NewNetworkClock is NewNetwork with an injectable clock (nil = the system
// clock), shared with the federation bus.
func NewNetworkClock(clk vclock.Clock) *Network {
	return &Network{
		Bus:     federation.NewBus(),
		clk:     vclock.OrSystem(clk),
		servers: make(map[string]*Server),
	}
}

// Clock returns the clock the network was built with.
func (n *Network) Clock() vclock.Clock {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.clk
}

// Add creates and registers a server.
func (n *Network) Add(cfg Config) *Server {
	s := NewServer(cfg, n.Bus)
	n.mu.Lock()
	n.servers[cfg.Domain] = s
	n.domains = append(n.domains, cfg.Domain)
	n.mu.Unlock()
	n.Bus.Register(s)
	return s
}

// Server returns the server for domain, or nil.
func (n *Network) Server(domain string) *Server {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.servers[domain]
}

// Domains lists all hosted domains in creation order.
func (n *Network) Domains() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]string(nil), n.domains...)
}

// ServeHTTP routes by Host header (port stripped).
func (n *Network) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	s := n.Server(host)
	if s == nil {
		refuse(w, http.StatusBadGateway, fmt.Sprintf("no such instance: %q", host))
		return
	}
	s.ServeHTTP(w, r)
}

// LoadOptions controls how a dataset.World is replayed into live servers.
type LoadOptions struct {
	// MaxTootsPerUser caps how many toot objects are materialised per user
	// (instance counters still reflect the capped number, keeping the live
	// network and the crawler's ground truth consistent). 0 means 10.
	MaxTootsPerUser int
	// OfflineGone marks servers of churned instances (GoneDay ≥ 0) offline,
	// reproducing the §3 crawl population (1.75K of 4.3K reachable).
	OfflineGone bool
	// Now is the timestamp base for replayed content.
	Now time.Time
	// Clock is the network's time source (nil = the system clock); the
	// simnet harness injects a vclock.Sim here.
	Clock vclock.Clock
	// FederationLatency, when positive, makes every bus delivery take this
	// long on Clock.
	FederationLatency time.Duration
}

// UserName returns the canonical account name for a world user id.
func UserName(id int32) string { return fmt.Sprintf("u%d", id) }

// LoadWorld builds a live network from a world: one server per instance,
// one account per user, every social edge replayed as a (local or federated)
// follow, and each user's toots posted and federated for real.
func LoadWorld(ctx context.Context, w *dataset.World, opts LoadOptions) (*Network, error) {
	if opts.MaxTootsPerUser <= 0 {
		opts.MaxTootsPerUser = 10
	}
	if opts.Now.IsZero() {
		opts.Now = dataset.Day(w.Days)
	}
	n := NewNetworkClock(opts.Clock)
	if opts.FederationLatency > 0 {
		n.Bus.SetLatency(opts.Clock, opts.FederationLatency)
	}

	for i := range w.Instances {
		in := &w.Instances[i]
		srv := n.Add(Config{
			Domain:      in.Domain,
			Software:    string(in.Software),
			Open:        in.Open,
			BlocksCrawl: in.BlocksCrawl,
		})
		if opts.OfflineGone && in.GoneDay >= 0 {
			srv.SetOnline(false)
		}
	}

	// Accounts.
	for i := range w.Users {
		u := &w.Users[i]
		srv := n.Server(w.Instances[u.Instance].Domain)
		if _, err := srv.CreateAccount(UserName(u.ID), u.Private, true, dataset.Day(u.JoinDay)); err != nil {
			return nil, err
		}
	}

	// Follows: local edges directly, remote edges through the federation
	// handshake (which installs the push subscriptions).
	for ui := range w.Users {
		u := &w.Users[ui]
		srv := n.Server(w.Instances[u.Instance].Domain)
		for _, v := range w.Social.Out(int32(ui)) {
			target := &w.Users[v]
			if target.Instance == u.Instance {
				if err := srv.FollowLocal(UserName(u.ID), UserName(target.ID)); err != nil {
					return nil, err
				}
				continue
			}
			remote := federation.Actor{
				User:   UserName(target.ID),
				Domain: w.Instances[target.Instance].Domain,
			}
			if err := srv.FollowRemote(ctx, UserName(u.ID), remote); err != nil {
				return nil, err
			}
		}
	}

	// Toots: capped per user, timestamps spread over the user's lifetime.
	for ui := range w.Users {
		u := &w.Users[ui]
		count := u.Toots
		if count > opts.MaxTootsPerUser {
			count = opts.MaxTootsPerUser
		}
		if count == 0 {
			continue
		}
		srv := n.Server(w.Instances[u.Instance].Domain)
		for k := 0; k < count; k++ {
			content := fmt.Sprintf("toot %d from %s", k, UserName(u.ID))
			var tags []string
			if k%5 == 0 {
				tags = []string{"fediverse"}
			}
			at := opts.Now.Add(-time.Duration(count-k) * time.Minute)
			if _, err := srv.PostToot(ctx, UserName(u.ID), content, tags, at); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}
