package dataset

import (
	"math"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
)

// This file is the single normalisation point between raw campaign
// observations and a World: every crawled, expected or merged world goes
// through Assemble, so two worlds can only differ in bytes where the
// underlying observations differ. It used to live inside the simnet
// harness; the incremental-recrawl merge (merge.go) needs the same
// construction, so it moved down to the dataset layer.

// WorldParts is the normalised input of Assemble: instance records in probe
// order, the observed accounts with their public toot counts and follower
// lists, and the availability traces of the observation window. An
// account's id is its index in Accounts; Toots and Followers are indexed by
// it and may stop short of Accounts' end (the accounts past it have no
// toots, or no followers).
type WorldParts struct {
	Instances []Instance
	Accounts  []string  // user@domain; a name listed twice is one account
	Toots     []int     // public toots per account
	Followers [][]int32 // each account's followers, as ids, duplicates kept
	Traces    *sim.TraceSet
	Days      int
}

// SplitAcct splits user@domain; it returns ok=false for malformed accts.
func SplitAcct(acct string) (user, domain string, ok bool) {
	i := strings.IndexByte(acct, '@')
	if i <= 0 || i == len(acct)-1 {
		return "", "", false
	}
	return acct[:i], acct[i+1:], true
}

// Assemble builds the world one canonical way: a user for every account
// that has a toot or takes part in a follow and lives on one of the
// instances, dense user ids in sorted account order, the social graph with
// each user's follows in ascending id order (duplicates kept), and the
// federation graph induced from it. A malformed account or one on an
// unknown domain is dropped with its follows, but still lets the other end
// of a follow in. It returns the world plus the account name of every user
// id.
func Assemble(p WorldParts) (*World, []string) {
	instIdx := make(map[string]int32, len(p.Instances))
	for i := range p.Instances {
		instIdx[p.Instances[i].Domain] = int32(i)
	}
	userOf := make([]int32, len(p.Accounts)) // 1 once the account takes part, then its user id or -1
	for a, n := range p.Toots {
		if n > 0 {
			userOf[a] = 1
		}
	}
	for a, fs := range p.Followers {
		if len(fs) > 0 {
			userOf[a] = 1
		}
		for _, f := range fs {
			userOf[f] = 1
		}
	}
	keep := make([]int32, 0, len(p.Accounts))
	for a, in := range userOf {
		userOf[a] = -1
		if in == 0 {
			continue
		}
		if _, domain, ok := SplitAcct(p.Accounts[a]); ok {
			if _, known := instIdx[domain]; known {
				keep = append(keep, int32(a))
			}
		}
	}
	slices.SortFunc(keep, func(a, b int32) int { return strings.Compare(p.Accounts[a], p.Accounts[b]) })
	names := make([]string, 0, len(keep))
	users := make([]User, 0, len(keep))
	for _, a := range keep {
		if name := p.Accounts[a]; len(names) == 0 || names[len(names)-1] != name {
			_, domain, _ := SplitAcct(name)
			names = append(names, name)
			users = append(users, User{ID: int32(len(users)), Instance: instIdx[domain]})
		}
		u := int32(len(users) - 1)
		userOf[a] = u
		if int(a) < len(p.Toots) {
			// A count saturates at math.MaxInt32: a row's counters are int32.
			users[u].Toots = int32(min(int64(users[u].Toots)+int64(p.Toots[a]), math.MaxInt32))
		}
	}

	// A follow goes from the follower's row to the followee. The rows share
	// one array, sized by a first pass; sorting each row's ids yields the
	// rows a sort of the (follower, followee) name pairs would, since ids
	// are in name order.
	off := make([]int, len(users)+1)
	for a, fs := range p.Followers {
		if userOf[a] < 0 {
			continue
		}
		for _, f := range fs {
			if from := userOf[f]; from >= 0 {
				off[from+1]++
			}
		}
	}
	for u := range users {
		off[u+1] += off[u]
	}
	all := make([]int32, off[len(users)])
	rows := make([][]int32, len(users))
	for u := range rows {
		rows[u] = all[off[u]:off[u]:off[u+1]]
	}
	for a, fs := range p.Followers {
		to := userOf[a]
		if to < 0 {
			continue
		}
		for _, f := range fs {
			if from := userOf[f]; from >= 0 {
				rows[from] = append(rows[from], to)
			}
		}
	}
	for _, row := range rows {
		slices.Sort(row)
	}
	social := graph.FromRows(rows)
	group := make([]int32, len(users))
	for i := range users {
		group[i] = users[i].Instance
	}
	w := &World{
		Days:       p.Days,
		Instances:  p.Instances,
		Users:      users,
		Social:     social,
		Federation: social.Induce(group, len(p.Instances)),
		Traces:     p.Traces,
	}
	return w, names
}
