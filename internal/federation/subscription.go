package federation

import (
	"sort"
	"sync"
)

// Subscriptions is one instance's view of federation: which remote accounts
// its local users follow (driving inbound pulls) and which remote instances
// subscribed to which local accounts (driving outbound pushes). It is safe
// for concurrent use.
type Subscriptions struct {
	mu sync.RWMutex
	// subscribers[localUser] = set of remote domains that must receive the
	// user's toots (because somebody there follows the user).
	subscribers map[string]map[string]int
	// remoteFollows[localUser@] counts local follows of remote accounts,
	// keyed by remote actor string; used for the instance-API subscription
	// count and the federated-timeline bootstrap.
	remoteFollows map[string]int
	// peers = distinct remote domains this instance exchanges with.
	peers map[string]int
}

// NewSubscriptions returns an empty table.
func NewSubscriptions() *Subscriptions {
	return &Subscriptions{
		subscribers:   make(map[string]map[string]int),
		remoteFollows: make(map[string]int),
		peers:         make(map[string]int),
	}
}

// AddSubscriber registers that domain must receive localUser's toots.
func (s *Subscriptions) AddSubscriber(localUser, domain string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.subscribers[localUser]
	if m == nil {
		m = make(map[string]int)
		s.subscribers[localUser] = m
	}
	m[domain]++
	s.peers[domain]++
}

// RemoveSubscriber drops one subscription of domain to localUser and
// reports whether there was one; without one nothing changes, so an
// unsolicited Undo cannot erase a peer that other relationships hold.
func (s *Subscriptions) RemoveSubscriber(localUser, domain string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.subscribers[localUser]
	if m[domain] == 0 {
		return false
	}
	if m[domain]--; m[domain] == 0 {
		delete(m, domain)
	}
	if len(m) == 0 {
		delete(s.subscribers, localUser)
	}
	if s.peers[domain]--; s.peers[domain] <= 0 {
		delete(s.peers, domain)
	}
	return true
}

// SubscriberDomains returns the remote domains following localUser, sorted.
func (s *Subscriptions) SubscriberDomains(localUser string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.subscribers[localUser]
	out := make([]string, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// AddRemoteFollow records that a local user follows the remote actor.
func (s *Subscriptions) AddRemoteFollow(remote Actor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remoteFollows[remote.String()]++
	s.peers[remote.Domain]++
}

// RemoteFollowCount returns the number of live remote-follow relationships.
func (s *Subscriptions) RemoteFollowCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.remoteFollows {
		n += c
	}
	return n
}

// PeerCount returns the number of distinct remote domains this instance
// federates with — the "federated subscriptions" count of the instance API.
func (s *Subscriptions) PeerCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.peers)
}

// PeerDomains returns the distinct remote domains this instance federates
// with, sorted — the peer list of the instance API.
func (s *Subscriptions) PeerDomains() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.peers))
	for d := range s.peers {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
