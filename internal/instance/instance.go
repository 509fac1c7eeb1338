// Package instance implements a miniature Mastodon/Pleroma server — the
// object the paper measures. Each Server hosts accounts, toots and boosts,
// maintains the three timelines of §2 (home, local, federated), federates
// with remote instances through the subscription protocol of
// internal/federation, and speaks the HTTP surface the paper's measurement
// infrastructure consumed: the instance metadata API, the paged public
// timeline API, and HTML follower pages.
package instance

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/federation"
)

// Config describes one instance.
type Config struct {
	Domain      string
	Software    string // "mastodon" or "pleroma"
	Version     string
	Open        bool // open registrations
	BlocksCrawl bool // refuse public-timeline crawling (403)

	// MaxFederated bounds the federated timeline (oldest entries are
	// dropped), like Mastodon's own timeline trimming. 0 means default.
	MaxFederated int
}

const defaultMaxFederated = 65536

// Account is a registered local user.
type Account struct {
	Name      string
	CreatedAt time.Time
	Private   bool // toots excluded from public timelines

	followers []uint32 // actor intern indices, in arrival order
	following int
	toots     int
}

// Toot is one status. Remote toots carry the remote author and a local
// sequence number for federated-timeline pagination.
type Toot struct {
	ID        int64 // local sequence number (pagination key)
	Author    federation.Actor
	Content   string
	Hashtags  []string
	CreatedAt time.Time
	Remote    bool   // arrived via federation
	BoostOf   string // non-empty when this entry is a boost of a note id
	NoteID    string // globally unique note id ("domain/seq")
}

// Server is one live instance. All methods are safe for concurrent use.
type Server struct {
	cfg  Config
	subs *federation.Subscriptions

	mu       sync.RWMutex
	online   bool
	accounts map[string]*Account
	store    tootStore // slab-backed toots and timelines (slab.go)
	nextID   int64
	statuses int64 // total statuses ever authored locally (incl. private)
	boosts   int64
	blocked  map[string]bool // defederated domains (§7)

	transport federation.Transport

	// pages holds the page kinds' generations, which name the ETags, and
	// the rendered meta pages; every visible mutation calls
	// pages.invalidate, naming the page kinds it changed, after the state
	// change lands (see http.go).
	pages pageCache
}

// NewServer creates an online server with the given transport (may be nil
// for an isolated instance).
func NewServer(cfg Config, t federation.Transport) *Server {
	if cfg.Version == "" {
		cfg.Version = "2.4.0"
	}
	if cfg.Software == "" {
		cfg.Software = "mastodon"
	}
	if cfg.MaxFederated <= 0 {
		cfg.MaxFederated = defaultMaxFederated
	}
	return &Server{
		cfg:       cfg,
		subs:      federation.NewSubscriptions(),
		online:    true,
		accounts:  make(map[string]*Account),
		blocked:   make(map[string]bool),
		transport: t,
	}
}

// BlockDomain defederates from a remote domain: inbound activities from it
// are rejected and nothing is pushed to it. Unblocking passes false.
func (s *Server) BlockDomain(domain string, blocked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blocked {
		s.blocked[domain] = true
	} else {
		delete(s.blocked, domain)
	}
}

// BlocksDomain reports whether domain is defederated.
func (s *Server) BlocksDomain(domain string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blocked[domain]
}

// Domain implements federation.Inbox.
func (s *Server) Domain() string { return s.cfg.Domain }

// PeerDomains returns the distinct remote domains this instance federates
// with, sorted — the peer list /api/v1/instance/peers serves, and the
// payload of the presence record an instance publishes to the DHT
// directory.
func (s *Server) PeerDomains() []string { return s.subs.PeerDomains() }

// SetOnline flips the instance's availability (outage simulation).
func (s *Server) SetOnline(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.online = v
}

// Online reports whether the instance currently responds.
func (s *Server) Online() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.online
}

// CreateAccount registers a local account. Registration on closed instances
// is only refused for self sign-up (invited=false), mirroring invite-only
// instances.
func (s *Server) CreateAccount(name string, private, invited bool, at time.Time) (*Account, error) {
	if !s.cfg.Open && !invited {
		return nil, fmt.Errorf("instance %s: registrations are closed", s.cfg.Domain)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[name]; ok {
		return nil, errAccountExists(s.cfg.Domain, name)
	}
	a := &Account{Name: name, CreatedAt: at, Private: private}
	s.accounts[name] = a
	s.pages.invalidate(kindMeta)
	return a, nil
}

func errAccountExists(domain, name string) error {
	return fmt.Errorf("instance %s: account %q exists", domain, name)
}

// Account returns the named local account, or nil.
func (s *Server) Account(name string) *Account {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.accounts[name]
}

// PostToot publishes a toot by the named local account and pushes it to all
// subscriber instances. It returns the created toot.
func (s *Server) PostToot(ctx context.Context, author, content string, hashtags []string, at time.Time) (*Toot, error) {
	s.mu.Lock()
	acct, ok := s.accounts[author]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("instance %s: no account %q", s.cfg.Domain, author)
	}
	s.nextID++
	s.statuses++
	acct.toots++
	actor := federation.Actor{User: author, Domain: s.cfg.Domain}
	ri := s.store.add(s.nextID, at, actor, content, "", "", hashtags, false)
	s.store.pushLocal(ri)
	t := s.store.get(ri, s.cfg.Domain) // before the append: a compaction renumbers rows
	s.store.appendFederated(ri, s.cfg.MaxFederated)
	private := acct.Private
	s.pages.invalidate(kindMeta, kindLocal, kindFederated)
	s.mu.Unlock()

	if !private {
		s.push(ctx, author, &federation.Activity{
			Type: federation.TypeCreate,
			From: t.Author,
			Note: &federation.Note{
				ID:        t.NoteID,
				Author:    t.Author,
				Content:   content,
				Hashtags:  hashtags,
				CreatedAt: at,
			},
		})
	}
	return &t, nil
}

// Boost makes the named local account boost a note (by id) from origAuthor,
// delivering an Announce to the account's subscribers.
func (s *Server) Boost(ctx context.Context, booster, noteID string, origAuthor federation.Actor, at time.Time) error {
	s.mu.Lock()
	if _, ok := s.accounts[booster]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("instance %s: no account %q", s.cfg.Domain, booster)
	}
	s.nextID++
	s.boosts++
	actor := federation.Actor{User: booster, Domain: s.cfg.Domain}
	ri := s.store.add(s.nextID, at, actor, "", "", noteID, nil, false)
	s.store.appendFederated(ri, s.cfg.MaxFederated)
	s.pages.invalidate(kindFederated)
	s.mu.Unlock()

	s.push(ctx, booster, &federation.Activity{
		Type: federation.TypeBoost,
		From: actor,
		Note: &federation.Note{ID: noteID, Author: origAuthor, CreatedAt: at},
	})
	return nil
}

// push delivers an activity to every subscriber domain of the local user,
// skipping defederated domains.
func (s *Server) push(ctx context.Context, localUser string, a *federation.Activity) {
	if s.transport == nil {
		return
	}
	for _, domain := range s.subs.SubscriberDomains(localUser) {
		if s.BlocksDomain(domain) {
			continue
		}
		// Delivery failures to unreachable peers are the federation's normal
		// operating mode (instances die all the time); they are dropped.
		_ = s.transport.Deliver(ctx, domain, a)
	}
}

// FollowLocal makes follower follow target, both local accounts.
func (s *Server) FollowLocal(follower, target string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.accounts[follower]
	if !ok {
		return fmt.Errorf("instance %s: no account %q", s.cfg.Domain, follower)
	}
	t, ok := s.accounts[target]
	if !ok {
		return fmt.Errorf("instance %s: no account %q", s.cfg.Domain, target)
	}
	f.following++
	t.followers = append(t.followers, s.store.intern(federation.Actor{User: follower, Domain: s.cfg.Domain}))
	s.pages.invalidate(kindFollowers)
	return nil
}

// FollowRemote subscribes the local follower to a remote account: the local
// instance performs the federation handshake on the user's behalf (§2).
func (s *Server) FollowRemote(ctx context.Context, follower string, target federation.Actor) error {
	s.mu.Lock()
	f, ok := s.accounts[follower]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("instance %s: no account %q", s.cfg.Domain, follower)
	}
	f.following++
	s.mu.Unlock()

	s.subs.AddRemoteFollow(target)
	s.pages.invalidate(kindMeta)
	if s.transport == nil {
		return nil
	}
	return s.transport.Deliver(ctx, target.Domain, &federation.Activity{
		Type:   federation.TypeFollow,
		From:   federation.Actor{User: follower, Domain: s.cfg.Domain},
		Target: target,
	})
}

// Receive implements federation.Inbox.
func (s *Server) Receive(ctx context.Context, a *federation.Activity) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if s.BlocksDomain(a.From.Domain) {
		return fmt.Errorf("instance %s: domain %s is blocked", s.cfg.Domain, a.From.Domain)
	}
	switch a.Type {
	case federation.TypeFollow:
		s.mu.Lock()
		t, ok := s.accounts[a.Target.User]
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("instance %s: follow of unknown account %q", s.cfg.Domain, a.Target.User)
		}
		t.followers = append(t.followers, s.store.intern(a.From))
		s.mu.Unlock()
		s.subs.AddSubscriber(a.Target.User, a.From.Domain)
		s.pages.invalidate(kindMeta, kindFollowers)
		return nil
	case federation.TypeUndo:
		if s.subs.RemoveSubscriber(a.Target.User, a.From.Domain) {
			s.pages.invalidate(kindMeta)
		}
		return nil
	case federation.TypeCreate, federation.TypeBoost:
		s.mu.Lock()
		s.nextID++
		boostOf := ""
		if a.Type == federation.TypeBoost {
			boostOf = a.Note.ID
		}
		ri := s.store.add(s.nextID, a.Note.CreatedAt, a.Note.Author,
			a.Note.Content, a.Note.ID, boostOf, a.Note.Hashtags, true)
		s.store.appendFederated(ri, s.cfg.MaxFederated)
		s.pages.invalidate(kindFederated)
		s.mu.Unlock()
		return nil
	}
	return fmt.Errorf("instance %s: unsupported activity %q", s.cfg.Domain, a.Type)
}

// Stats is the instance-API metadata snapshot (§3: name, version, toots,
// users, federated subscriptions...).
type Stats struct {
	Domain        string
	Software      string
	Version       string
	Users         int
	Statuses      int64
	Boosts        int64
	Peers         int
	RemoteFollows int
	Open          bool
}

// Stats returns the current snapshot.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Domain:        s.cfg.Domain,
		Software:      s.cfg.Software,
		Version:       s.cfg.Version,
		Users:         len(s.accounts),
		Statuses:      s.statuses,
		Boosts:        s.boosts,
		Peers:         s.subs.PeerCount(),
		RemoteFollows: s.subs.RemoteFollowCount(),
		Open:          s.cfg.Open,
	}
}

// Timeline selects which public timeline to page through.
type Timeline int

// Timeline kinds, one per public timeline.
const (
	TimelineLocal Timeline = iota
	TimelineFederated
)
