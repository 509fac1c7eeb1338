package federation

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// Subscriptions is one instance's view of federation: which remote accounts
// its local users follow (driving inbound pulls) and which remote instances
// subscribed to which local accounts (driving outbound pushes). It is safe
// for concurrent use.
type Subscriptions struct {
	mu sync.RWMutex
	// subscribers[localUser] = the remote domains that must receive the
	// user's toots (because somebody there follows the user), sorted by
	// domain, each with its number of such follows.
	subscribers map[string][]DomainCount
	// remoteFollows counts local follows of remote accounts — the
	// instance API's subscription count.
	remoteFollows int
	// peers = distinct remote domains this instance exchanges with.
	peers map[string]int
}

// DomainCount is one remote domain's follows of a local user.
type DomainCount struct {
	Domain string
	Count  int
}

// NewSubscriptions returns an empty table.
func NewSubscriptions() *Subscriptions {
	return &Subscriptions{
		subscribers: make(map[string][]DomainCount),
		peers:       make(map[string]int),
	}
}

// RestoreSubscriptions returns the table a sequence of AddSubscriber and
// AddRemoteFollow calls would have built: subscribers[localUser] lists, by
// ascending domain, each domain with follows of the user and how many (none
// zero, no list empty), peers[domain] counts the relationships held with the
// domain in either direction, remoteFollows the local follows of remote
// accounts. The table takes ownership of the maps and lists.
func RestoreSubscriptions(subscribers map[string][]DomainCount, peers map[string]int, remoteFollows int) *Subscriptions {
	return &Subscriptions{subscribers: subscribers, peers: peers, remoteFollows: remoteFollows}
}

// find returns where domain is or would be in the sorted list l.
func find(l []DomainCount, domain string) (int, bool) {
	return slices.BinarySearchFunc(l, domain, func(e DomainCount, d string) int { return strings.Compare(e.Domain, d) })
}

// AddSubscriber registers that domain must receive localUser's toots.
func (s *Subscriptions) AddSubscriber(localUser, domain string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.subscribers[localUser]
	if i, ok := find(l, domain); ok {
		l[i].Count++
	} else {
		s.subscribers[localUser] = slices.Insert(l, i, DomainCount{Domain: domain, Count: 1})
	}
	s.peers[domain]++
}

// RemoveSubscriber drops one subscription of domain to localUser and
// reports whether there was one; without one nothing changes, so an
// unsolicited Undo cannot erase a peer that other relationships hold.
func (s *Subscriptions) RemoveSubscriber(localUser, domain string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.subscribers[localUser]
	i, ok := find(l, domain)
	if !ok {
		return false
	}
	if l[i].Count--; l[i].Count == 0 {
		if l = slices.Delete(l, i, i+1); len(l) == 0 {
			delete(s.subscribers, localUser)
		} else {
			s.subscribers[localUser] = l
		}
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
	l := s.subscribers[localUser]
	out := make([]string, len(l))
	for i, e := range l {
		out[i] = e.Domain
	}
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
