package instance

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/federation"
	"repro/internal/vclock"
)

// Network hosts many instances in one process, multiplexed by Host header,
// federating over an in-process bus. It is the live counterpart of a
// dataset.World: LoadWorld builds running servers from a generated world so
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
