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
	// remoteFollows counts local follows of remote accounts — the
	// instance API's subscription count.
	remoteFollows int
	// peers = distinct remote domains this instance exchanges with.
	peers map[string]int
}

// NewSubscriptions returns an empty table.
func NewSubscriptions() *Subscriptions {
	return &Subscriptions{
		subscribers: make(map[string]map[string]int),
		peers:       make(map[string]int),
	}
}

// RestoreSubscriptions returns the table a sequence of AddSubscriber and
// AddRemoteFollow calls would have built: subscribers[localUser][domain]
// counts that domain's follows of the user, peers[domain] counts the
// relationships held with the domain in either direction, remoteFollows the
// local follows of remote accounts. The table takes ownership of the maps.
func RestoreSubscriptions(subscribers map[string]map[string]int, peers map[string]int, remoteFollows int) *Subscriptions {
	return &Subscriptions{subscribers: subscribers, peers: peers, remoteFollows: remoteFollows}
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
	s.remoteFollows++
	s.peers[remote.Domain]++
}

// RemoteFollowCount returns the number of live remote-follow relationships.
func (s *Subscriptions) RemoteFollowCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.remoteFollows
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
