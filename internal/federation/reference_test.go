package federation

import (
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// refSubscriptions is the table Subscriptions replaced: a set of domains per
// local user as a nested map, sorted on every read.
type refSubscriptions struct {
	subscribers   map[string]map[string]int
	remoteFollows int
	peers         map[string]int
}

func newRefSubscriptions() *refSubscriptions {
	return &refSubscriptions{subscribers: make(map[string]map[string]int), peers: make(map[string]int)}
}

func (s *refSubscriptions) AddSubscriber(localUser, domain string) {
	m := s.subscribers[localUser]
	if m == nil {
		m = make(map[string]int)
		s.subscribers[localUser] = m
	}
	m[domain]++
	s.peers[domain]++
}

func (s *refSubscriptions) RemoveSubscriber(localUser, domain string) bool {
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

func (s *refSubscriptions) SubscriberDomains(localUser string) []string {
	m := s.subscribers[localUser]
	out := make([]string, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func (s *refSubscriptions) AddRemoteFollow(remote Actor) {
	s.remoteFollows++
	s.peers[remote.Domain]++
}

func (s *refSubscriptions) PeerDomains() []string {
	out := make([]string, 0, len(s.peers))
	for d := range s.peers {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// A seeded script of follows, remote follows and removes — unsolicited ones,
// removes down to zero and re-adds among them — leaves the sorted lists
// answering every query as the nested maps do after every step, and every
// list sorted, with no zero count and no empty list.
func TestSubscriptionsMatchReference(t *testing.T) {
	users := []string{"alice", "bob", "u1", "u10", ""}
	domains := []string{"a.test", "b.test", "c.test", "mastodon.social", "z.test", "b.tes"}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		got, ref := NewSubscriptions(), newRefSubscriptions()
		for step := range 3000 {
			u, d := users[rng.IntN(len(users))], domains[rng.IntN(len(domains))]
			op := rng.IntN(10)
			switch {
			case op < 4:
				got.AddSubscriber(u, d)
				ref.AddSubscriber(u, d)
			case op < 5:
				a := Actor{User: "x" + strconv.Itoa(rng.IntN(3)), Domain: d}
				got.AddRemoteFollow(a)
				ref.AddRemoteFollow(a)
			default:
				if g, r := got.RemoveSubscriber(u, d), ref.RemoveSubscriber(u, d); g != r {
					t.Fatalf("seed %d step %d: RemoveSubscriber(%q, %q) = %v, want %v", seed, step, u, d, g, r)
				}
			}
			for _, u := range append(users, "nobody") {
				if g, r := got.SubscriberDomains(u), ref.SubscriberDomains(u); !slices.Equal(g, r) {
					t.Fatalf("seed %d step %d: SubscriberDomains(%q) = %v, want %v", seed, step, u, g, r)
				}
			}
			if g, r := got.PeerDomains(), ref.PeerDomains(); !slices.Equal(g, r) {
				t.Fatalf("seed %d step %d: PeerDomains = %v, want %v", seed, step, g, r)
			}
			if g, r := got.PeerCount(), len(ref.peers); g != r {
				t.Fatalf("seed %d step %d: PeerCount = %d, want %d", seed, step, g, r)
			}
			if g, r := got.RemoteFollowCount(), ref.remoteFollows; g != r {
				t.Fatalf("seed %d step %d: RemoteFollowCount = %d, want %d", seed, step, g, r)
			}
			if len(got.subscribers) != len(ref.subscribers) {
				t.Fatalf("seed %d step %d: %d lists, want %d", seed, step, len(got.subscribers), len(ref.subscribers))
			}
			for u, l := range got.subscribers {
				for i, e := range l {
					if i > 0 && l[i-1].Domain >= e.Domain || e.Count <= 0 || e.Count != ref.subscribers[u][e.Domain] {
						t.Fatalf("seed %d step %d: %q's list is %v, want strictly sorted with the counts %v", seed, step, u, l, ref.subscribers[u])
					}
				}
			}
		}
	}
}
