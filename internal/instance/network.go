package instance

import (
	"context"
	"fmt"
	"net"
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

// ServeWorld loads w (LoadWorld) and serves it on ln, which it closes on
// every path, until ctx is done; then it shuts down, giving open requests
// five seconds. It returns once the network serves, with wait, which blocks
// until the server stops and says why: nil after a clean shutdown.
func ServeWorld(ctx context.Context, ln net.Listener, w *dataset.World, opts LoadOptions) (n *Network, wait func() error, err error) {
	if n, err = LoadWorld(ctx, w, opts); err != nil {
		ln.Close()
		return nil, nil, err
	}
	srv := httpServer(n)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return n, func() error {
		select {
		case err := <-served:
			return err
		case <-ctx.Done():
		}
		shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdown)
		<-served
		return err
	}, nil
}

// httpServer returns the HTTP server for a live network, with every limit
// a client could otherwise hold a connection open past: a request's headers
// and body must arrive, and its response leave, within bounded times, an
// idle keep-alive connection is closed, and headers are capped in size.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second, // an inbox body is at most 1 MB
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}
