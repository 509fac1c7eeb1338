package dataset_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
)

// edgeParts are the observations of WorldParts in the form Assemble took
// before it worked on ids: every observed account in a set, toot counts by
// name, and one follower → followee pair of names per follow.
type edgeParts struct {
	Instances []dataset.Instance
	Accounts  map[string]struct{}
	TootsOf   map[string]int
	Edges     []followEdge
	Traces    *sim.TraceSet
	Days      int
}

type followEdge struct{ From, To string }

// refAssemble is the string-edge Assemble: sort the accounts by name, sort
// the follows globally as (From, To) name pairs, insert them in that order,
// drop the ones with an endpoint on no instance. It is the specification
// TestAssembleMatchesReference and FuzzAssemble hold Assemble against.
func refAssemble(p edgeParts) (*dataset.World, []string) {
	instIdx := make(map[string]int32, len(p.Instances))
	for i := range p.Instances {
		instIdx[p.Instances[i].Domain] = int32(i)
	}
	names := make([]string, 0, len(p.Accounts))
	for acct := range p.Accounts {
		if _, domain, ok := dataset.SplitAcct(acct); ok {
			if _, known := instIdx[domain]; known {
				names = append(names, acct)
			}
		}
	}
	sort.Strings(names)
	idx := make(map[string]int32, len(names))
	users := make([]dataset.User, len(names))
	for i, acct := range names {
		idx[acct] = int32(i)
		_, domain, _ := dataset.SplitAcct(acct)
		users[i] = dataset.User{ID: int32(i), Instance: instIdx[domain], Toots: int32(min(p.TootsOf[acct], math.MaxInt32))}
	}

	edges := append([]followEdge(nil), p.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	b := graph.NewBuilder(len(users))
	for _, e := range edges {
		from, okF := idx[e.From]
		to, okT := idx[e.To]
		if okF && okT {
			b.AddEdge(from, to)
		}
	}
	social := b.Freeze()
	group := make([]int32, len(users))
	for i := range users {
		group[i] = users[i].Instance
	}
	return &dataset.World{
		Days:       p.Days,
		Instances:  p.Instances,
		Users:      users,
		Social:     social,
		Federation: social.Induce(group, len(p.Instances)),
		Traces:     p.Traces,
	}, names
}

// byName is what Rebuild, ExpectedWorld and Merge handed the string-edge
// Assemble for the observations p holds: the accounts with a counted toot
// or a follow either way, their toots by name, and a pair per follow.
func byName(p dataset.WorldParts) edgeParts {
	e := edgeParts{
		Instances: p.Instances, Accounts: map[string]struct{}{}, TootsOf: map[string]int{},
		Traces: p.Traces, Days: p.Days,
	}
	for a, n := range p.Toots {
		if n > 0 {
			e.Accounts[p.Accounts[a]] = struct{}{}
			e.TootsOf[p.Accounts[a]] += n
		}
	}
	for a, fs := range p.Followers {
		for _, f := range fs {
			e.Accounts[p.Accounts[f]] = struct{}{}
			e.Accounts[p.Accounts[a]] = struct{}{}
			e.Edges = append(e.Edges, followEdge{From: p.Accounts[f], To: p.Accounts[a]})
		}
	}
	return e
}

// sameAssembly holds Assemble to refAssemble on one input: the same names
// and the same world file, byte for byte. Assemble must leave its caller's
// follower lists as they were.
func sameAssembly(t testing.TB, p dataset.WorldParts) {
	t.Helper()
	followers := slices.Clone(p.Followers)
	for a, fs := range followers {
		followers[a] = slices.Clone(fs)
	}
	want, wantNames := refAssemble(byName(p))
	got, gotNames := dataset.Assemble(p)
	if !reflect.DeepEqual(p.Followers, followers) {
		t.Fatal("Assemble reordered or rewrote its caller's follower lists")
	}
	if !slices.Equal(gotNames, wantNames) {
		k := 0
		for k < len(gotNames) && k < len(wantNames) && gotNames[k] == wantNames[k] {
			k++
		}
		t.Fatalf("names differ from user %d on: got %q, want %q (%d users, want %d)",
			k, gotNames[k:min(k+3, len(gotNames))], wantNames[k:min(k+3, len(wantNames))], len(gotNames), len(wantNames))
	}
	var g, w bytes.Buffer
	if err := want.Save(&w); err != nil {
		t.Fatalf("reference world does not save: %v", err)
	}
	if err := got.Save(&g); err != nil {
		t.Fatalf("assembled world does not save: %v", err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		for u := int32(0); int(u) < len(wantNames); u++ {
			if !reflect.DeepEqual(got.Social.Out(u), want.Social.Out(u)) || got.Users[u] != want.Users[u] {
				t.Fatalf("world files differ; first at %s: %+v follows %v, want %+v follows %v",
					wantNames[u], got.Users[u], got.Social.Out(u), want.Users[u], want.Social.Out(u))
			}
		}
		t.Fatalf("world files differ (%d vs %d bytes) with equal users and follow rows", g.Len(), w.Len())
	}
}

func flatTraces(n, slots int) *sim.TraceSet {
	ts := &sim.TraceSet{SlotsPerDay: dataset.SlotsPerDay, Traces: make([]*sim.Trace, n)}
	for i := range ts.Traces {
		ts.Traces[i] = sim.NewTrace(slots)
	}
	return ts
}

// observed writes follower → followee pairs and toot counts in WorldParts'
// id form: the accounts in first-seen order (the pairs', then the counted
// ones'), and each followee's followers in the order given.
func observed(p dataset.WorldParts, tootsOf map[string]int, pairs ...[2]string) dataset.WorldParts {
	id := map[string]int32{}
	of := func(acct string) int32 {
		k, ok := id[acct]
		if !ok {
			k = int32(len(p.Accounts))
			id[acct] = k
			p.Accounts = append(p.Accounts, acct)
			p.Toots = append(p.Toots, 0)
			p.Followers = append(p.Followers, nil)
		}
		return k
	}
	for _, e := range pairs {
		from, to := of(e[0]), of(e[1])
		p.Followers[to] = append(p.Followers[to], from)
	}
	accts := slices.Sorted(maps.Keys(tootsOf))
	for _, acct := range accts {
		p.Toots[of(acct)] = tootsOf[acct]
	}
	return p
}

// campaignParts derives from a generated world what a campaign over it
// hands to Assemble: every public user as a scraped author with its toots
// (none for some) and followers (none for some), the followers listed in
// scrape order. With shuffle set the account ids are permuted, each
// follower list shuffled, and some follows doubled.
func campaignParts(w *dataset.World, shuffle bool, seed int64) dataset.WorldParts {
	p := dataset.WorldParts{
		Instances: append([]dataset.Instance(nil), w.Instances...),
		Traces:    flatTraces(len(w.Instances), 4),
	}
	id := make([]int32, len(w.Users)) // account id + 1
	of := func(u int32) int32 {
		if id[u] == 0 {
			p.Accounts = append(p.Accounts, fmt.Sprintf("u%d@%s", u, w.Instances[w.Users[u].Instance].Domain))
			p.Toots = append(p.Toots, 0)
			p.Followers = append(p.Followers, nil)
			id[u] = int32(len(p.Accounts))
		}
		return id[u] - 1
	}
	for u := range w.Users {
		if w.Users[u].Private {
			continue
		}
		a := of(int32(u))
		p.Toots[a] = int(w.Users[u].Toots)
		for _, v := range w.Social.In(int32(u)) {
			p.Followers[a] = append(p.Followers[a], of(v))
		}
	}
	if shuffle {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(p.Accounts))
		accounts, toots, followers := make([]string, len(perm)), make([]int, len(perm)), make([][]int32, len(perm))
		for a, to := range perm {
			accounts[to], toots[to] = p.Accounts[a], p.Toots[a]
			for _, f := range p.Followers[a] {
				followers[to] = append(followers[to], int32(perm[f]))
			}
			fs := followers[to]
			followers[to] = append(fs, fs[:len(fs)/10]...)
			rng.Shuffle(len(followers[to]), func(i, j int) {
				followers[to][i], followers[to][j] = followers[to][j], followers[to][i]
			})
		}
		p.Accounts, p.Toots, p.Followers = accounts, toots, followers
	}
	return p
}

func TestAssembleMatchesReference(t *testing.T) {
	two := []dataset.Instance{
		{ID: 0, Domain: "x", GoneDay: -1},
		{ID: 1, Domain: "y.example", GoneDay: -1},
	}
	parts := func(instances []dataset.Instance, slots int) dataset.WorldParts {
		return dataset.WorldParts{Instances: instances, Traces: flatTraces(len(instances), slots)}
	}
	edge := func(from, to string) [2]string { return [2]string{from, to} }
	// Names whose byte order is none of the "natural" ones: '-' sorts
	// before letters, upper case before lower, 'ä' (two bytes ≥ 0x80) after
	// every ASCII name, a name before its own extensions, '@' (0x40)
	// between digits and letters.
	odd := []string{"a@x", "a-b@x", "A@x", "ä@x", "a@y.example", "ab@x", "a0@x", "aa@x", "Z@x"}
	var oddAll [][2]string
	for _, f := range odd {
		for _, to := range odd {
			oddAll = append(oddAll, edge(f, to))
		}
	}
	long := "averyveryveryveryveryverylongsharedprefix"
	cases := []struct {
		name string
		p    dataset.WorldParts
	}{
		{"empty", parts(nil, 1)},
		// b@x and c@y.example have neither a toot nor a follow: no users.
		{"no edges", observed(parts(two, 3), map[string]int{"a@x": 2, "b@x": 0, "c@y.example": 0})},
		{"duplicate and self edges", observed(parts(two, 3), nil,
			edge("b@x", "a@x"), edge("a@x", "a@x"), edge("b@x", "a@x"), edge("c@y.example", "a@x"),
			edge("a@x", "b@x"), edge("b@x", "b@x"), edge("b@x", "a@x"), edge("a@x", "a@x"),
		)},
		// d@z is on no instance, "nodomain", "@x", "e@" and "" are
		// malformed: all are dropped from the users, and their follows with
		// them, but the accounts at the other end stay. f@x only has a
		// toot, g@x nothing.
		{"unknown endpoints and domains", observed(parts(two, 3), map[string]int{"f@x": 1, "g@x": 0, "d@z": 3, "@x": 1},
			edge("ghost@x", "a@x"), edge("a@x", "ghost@x"), edge("d@z", "a@x"), edge("a@x", "d@z"),
			edge("nodomain", "a@x"), edge("b@x", "a@x"), edge("ghost@x", "ghost@x"), edge("a@x", "b@x"),
			edge("", ""), edge("b@x", ""), edge("", "b@x"), edge("e@", "h@x"), edge("i@x", "@x"),
		)},
		{"byte order is not natural order", observed(parts(two, 2), nil, oddAll...)},
		{"byte order, reversed arrival", observed(parts(two, 2), nil, reversed(oddAll)...)},
		{"shared long prefix", observed(parts(two, 2), nil,
			edge(long+"b@x", long+"@x"), edge(long+"a@x", long+"@x"), edge(long+"@y.example", long+"@x"),
			edge(long+"@x", long+"b@x"), edge(long+"@x", long+"a@x"), edge(long[:len(long)-1]+"@x", long+"a@x"),
			edge(long+"@x", long[:len(long)-1]+"@x"),
		)},
		{"to repeats in runs, then returns", observed(parts(two, 2), nil,
			edge("b@x", "a@x"), edge("c@x", "a@x"), edge("a@x", "ghost@x"), edge("b@x", "ghost@x"),
			edge("a@x", "c@x"), edge("b@x", "a@x"), edge("c@x", "ghost@x"), edge("c@x", "c@x"),
		)},
		// A user's toot count is an int32: a@x's two counts, and b@x's
		// one, saturate there.
		{"toot counts saturate", dataset.WorldParts{Instances: two, Traces: flatTraces(2, 2),
			Accounts: []string{"a@x", "b@x", "a@x"}, Toots: []int{math.MaxInt32 - 1, math.MaxInt32 + 7, 5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { sameAssembly(t, tc.p) })
	}

	small := gen.SmallConfig(2)
	small.Instances, small.Users = 120, 3000
	for _, cfg := range []gen.Config{gen.TinyConfig(1), small} {
		w := gen.Generate(cfg)
		for _, shuffle := range []bool{false, true} {
			t.Run(fmt.Sprintf("generated %d users, shuffle=%v", cfg.Users, shuffle), func(t *testing.T) {
				p := campaignParts(w, shuffle, int64(cfg.Seed))
				follows, idle := 0, 0
				for a := range p.Accounts {
					if a < len(p.Followers) {
						follows += len(p.Followers[a])
					}
					if p.Toots[a] == 0 && len(p.Followers[a]) == 0 {
						idle++
					}
				}
				if follows < cfg.Users/4 || idle == 0 {
					t.Fatalf("%d follows and %d authors with no toots and no followers: the generated parts exercise little", follows, idle)
				}
				sameAssembly(t, p)
			})
		}
	}
}

func reversed(es [][2]string) [][2]string {
	out := slices.Clone(es)
	slices.Reverse(out)
	return out
}

// FuzzAssemble reads the input as a list of account names drawn from a
// small alphabet that straddles '@' in byte order — so that names are
// prefixes of each other, repeat, or are malformed — each with a toot
// count that may be zero, and a list of follows between them, and holds
// Assemble to refAssemble.
func FuzzAssemble(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 9, 0x81, 7, 7, 7, 0, 1, 1, 0, 2, 1, 2, 1})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789\x00\x01\x01\x00\x02\x00\x00\x02\x03\x07\x07\x03"))
	f.Add(bytes.Repeat([]byte{0xf3, 0x1c, 5}, 40))
	f.Add([]byte{1, 1, 4, 0, 1, 0, 0, 0}) // a@x: scraped, with no counted toot and no follower
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		const alphabet = "-0A@ab\xc3\xa4" // '@' may show up inside a user name or twice
		domains := []string{"x", "y", "x.y", "gone"}
		p := dataset.WorldParts{
			Instances: []dataset.Instance{
				{ID: 0, Domain: "x", GoneDay: -1}, {ID: 1, Domain: "y", GoneDay: -1}, {ID: 2, Domain: "x.y", GoneDay: -1},
			},
			Traces: flatTraces(3, 2),
		}
		for n := next() % 24; n > 0; n-- {
			var user []byte
			for k := next() % 5; k > 0; k-- {
				user = append(user, alphabet[next()%len(alphabet)])
			}
			p.Accounts = append(p.Accounts, string(user)+"@"+domains[next()%len(domains)])
			if next()%8 != 0 { // some accounts have no count at all
				p.Toots = append(p.Toots, next()%4)
			}
		}
		p.Toots = p.Toots[:min(len(p.Toots), len(p.Accounts))]
		p.Followers = make([][]int32, len(p.Accounts))
		if k := next(); k&1 == 1 && len(p.Followers) > 0 { // some lists stop short of the accounts
			p.Followers = p.Followers[:k/2%len(p.Followers)]
		}
		for n := next() % 64; n > 0 && len(p.Followers) > 0; n-- {
			to := next() % len(p.Followers)
			p.Followers[to] = append(p.Followers[to], int32(next()%len(p.Accounts)))
		}
		sameAssembly(t, p)
	})
}

// BenchmarkAssemble is the Assemble call inside bench's simnet.rebuild_s:
// the parts of a campaign over the benchmark's world (SmallConfig(1) cut to
// 500 instances and 20,000 users), edges in scrape order.
func BenchmarkAssemble(b *testing.B) {
	cfg := gen.SmallConfig(1)
	cfg.Instances, cfg.Users, cfg.Days, cfg.MassExpiryDay = 500, 20000, 8, -1
	p := campaignParts(gen.Generate(cfg), false, 0)
	b.Logf("%d accounts", len(p.Accounts))
	b.ReportAllocs()
	for b.Loop() {
		dataset.Assemble(p)
	}
}

// BenchmarkWorldSave and BenchmarkWorldLoad are bench's dataset.save_s and
// dataset.load_s: the calibrated small world through the columnar file.
func BenchmarkWorldSave(b *testing.B) {
	w := gen.Generate(gen.SmallConfig(1))
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := w.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkWorldLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := gen.Generate(gen.SmallConfig(1)).Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dataset.Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSplitAcct(t *testing.T) {
	u, d, ok := dataset.SplitAcct("alice@x.test")
	if !ok || u != "alice" || d != "x.test" {
		t.Fatalf("got %q %q %v", u, d, ok)
	}
	for _, bad := range []string{"", "alice", "@x", "alice@"} {
		if _, _, ok := dataset.SplitAcct(bad); ok {
			t.Fatalf("accepted %q", bad)
		}
	}
}
