package dataset

import (
	"slices"
	"sort"
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

// FollowEdge is one observed follower relationship: From follows To (both
// user@domain strings). The crawler's scrape edges are exactly this shape.
type FollowEdge struct {
	From string
	To   string
}

// WorldParts is the normalised input of Assemble: instance records in probe
// order, every observed account, per-account public toot counts, follower
// edges, and the availability traces of the observation window.
type WorldParts struct {
	Instances []Instance
	Accounts  map[string]struct{} // every observed user@domain
	TootsOf   map[string]int      // public toots per account
	Edges     []FollowEdge        // follower → followee
	Traces    *sim.TraceSet
	Days      int
	// Provenance, when non-nil, records how each instance's harvest ended,
	// aligned with Instances. A CrawlPartial entry carries the fault that
	// cut the harvest short; its salvaged toots are excluded from TootsOf
	// by the caller (a partial harvest is not trustworthy data).
	Provenance []CrawlProvenance
}

// CrawlProvenance is one instance's harvest outcome plus, for partial
// harvests, the fault that caused it.
type CrawlProvenance struct {
	Outcome CrawlOutcome
	// Fault describes what broke a CrawlPartial/CrawlOffline harvest
	// (quarantine, decode failure, transport error); empty for clean
	// outcomes.
	Fault string
}

// SplitAcct splits user@domain; it returns ok=false for malformed accts.
// (crawler.SplitAcct is an alias of this one.)
func SplitAcct(acct string) (user, domain string, ok bool) {
	i := strings.IndexByte(acct, '@')
	if i <= 0 || i == len(acct)-1 {
		return "", "", false
	}
	return acct[:i], acct[i+1:], true
}

// Assemble builds the world one canonical way: dense user ids in sorted
// account order, the social graph with each user's follows in ascending id
// order (duplicates kept), and the federation graph induced from it.
// Accounts whose domain is not an instance are dropped, as are edges
// touching them. It returns the world plus the account name of every user
// id.
func Assemble(p WorldParts) (*World, []string) {
	instIdx := make(map[string]int32, len(p.Instances))
	for i := range p.Instances {
		instIdx[p.Instances[i].Domain] = int32(i)
	}
	names := make([]string, 0, len(p.Accounts))
	for acct := range p.Accounts {
		if _, domain, ok := SplitAcct(acct); ok {
			if _, known := instIdx[domain]; known {
				names = append(names, acct)
			}
		}
	}
	sort.Strings(names)
	idx := make(map[string]int32, len(names))
	users := make([]User, len(names))
	for i, acct := range names {
		idx[acct] = int32(i)
		_, domain, _ := SplitAcct(acct)
		users[i] = User{
			ID:       int32(i),
			Instance: instIdx[domain],
			Toots:    p.TootsOf[acct],
		}
	}

	// Ids were handed out in sort.Strings order, so (From, To) byte order
	// is (from, to) id order: resolving first and sorting each row's ids
	// yields the rows a sort of the string pairs would, duplicates and
	// dropped edges included. A scrape lists one account's followers
	// together, so To is looked up once per run of equal values.
	rows := make([][]int32, len(users))
	var to int32
	var okT bool
	for i := range p.Edges {
		e := &p.Edges[i]
		if i == 0 || e.To != p.Edges[i-1].To {
			to, okT = idx[e.To]
		}
		if !okT {
			continue
		}
		if from, okF := idx[e.From]; okF {
			rows[from] = append(rows[from], to)
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
		Provenance: p.Provenance,
	}
	return w, names
}
