package dataset_test

import (
	"bytes"
	"fmt"
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

// refAssemble is Assemble as it was before edges were resolved to ids ahead
// of the sort: copy the edges, sort them globally as (From, To) string
// pairs, insert them in that order, drop the ones with an unknown endpoint.
// It is the specification TestAssembleMatchesReference and FuzzAssemble
// hold Assemble against.
func refAssemble(p dataset.WorldParts) (*dataset.World, []string) {
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
		users[i] = dataset.User{ID: int32(i), Instance: instIdx[domain], Toots: p.TootsOf[acct]}
	}

	edges := append([]dataset.FollowEdge(nil), p.Edges...)
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
		Provenance: p.Provenance,
	}, names
}

// sameAssembly holds Assemble to refAssemble on one input: the same names
// and the same world file, byte for byte. Both get their own copy of the
// edge list, and Assemble's must come back untouched.
func sameAssembly(t testing.TB, p dataset.WorldParts) {
	t.Helper()
	edges := append([]dataset.FollowEdge(nil), p.Edges...)
	want, wantNames := refAssemble(p)
	got, gotNames := dataset.Assemble(p)
	if !reflect.DeepEqual(p.Edges, edges) {
		t.Fatal("Assemble reordered or rewrote its caller's edges")
	}
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("names differ:\n got %q\nwant %q", gotNames, wantNames)
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
			if !reflect.DeepEqual(got.Social.Out(u), want.Social.Out(u)) {
				t.Fatalf("world files differ; first at %s: follows %v, want %v",
					wantNames[u], got.Social.Out(u), want.Social.Out(u))
			}
		}
		t.Fatalf("world files differ (%d vs %d bytes) with equal follow rows", g.Len(), w.Len())
	}
}

func flatTraces(n, slots int) *sim.TraceSet {
	ts := &sim.TraceSet{SlotsPerDay: dataset.SlotsPerDay, Traces: make([]*sim.Trace, n)}
	for i := range ts.Traces {
		ts.Traces[i] = sim.NewTrace(slots)
	}
	return ts
}

// campaignParts derives from a generated world what a campaign over it
// would hand to Assemble: every public author with a toot, their followers,
// and one follower → author edge per follow, an author's followers listed
// together the way a scrape lists them. With shuffle set the edges arrive
// in random order instead, and some are doubled.
func campaignParts(w *dataset.World, shuffle bool, seed int64) dataset.WorldParts {
	acct := func(u int32) string {
		return fmt.Sprintf("u%d@%s", u, w.Instances[w.Users[u].Instance].Domain)
	}
	p := dataset.WorldParts{
		Instances: append([]dataset.Instance(nil), w.Instances...),
		Accounts:  map[string]struct{}{},
		TootsOf:   map[string]int{},
		Traces:    flatTraces(len(w.Instances), 4),
	}
	for u := range w.Users {
		if w.Users[u].Private || w.Users[u].Toots == 0 {
			continue
		}
		a := acct(int32(u))
		p.Accounts[a] = struct{}{}
		p.TootsOf[a] = w.Users[u].Toots
		for _, v := range w.Social.In(int32(u)) {
			f := acct(v)
			p.Accounts[f] = struct{}{}
			p.Edges = append(p.Edges, dataset.FollowEdge{From: f, To: a})
		}
	}
	if shuffle {
		rng := rand.New(rand.NewSource(seed))
		p.Edges = append(p.Edges, p.Edges[:len(p.Edges)/10]...)
		rng.Shuffle(len(p.Edges), func(i, j int) { p.Edges[i], p.Edges[j] = p.Edges[j], p.Edges[i] })
	}
	return p
}

func TestAssembleMatchesReference(t *testing.T) {
	two := []dataset.Instance{
		{ID: 0, Domain: "x", GoneDay: -1},
		{ID: 1, Domain: "y.example", GoneDay: -1},
	}
	accounts := func(names ...string) map[string]struct{} {
		m := map[string]struct{}{}
		for _, n := range names {
			m[n] = struct{}{}
		}
		return m
	}
	edge := func(from, to string) dataset.FollowEdge { return dataset.FollowEdge{From: from, To: to} }
	// Names whose byte order is none of the "natural" ones: '-' sorts
	// before letters, upper case before lower, 'ä' (two bytes ≥ 0x80) after
	// every ASCII name, a name before its own extensions, '@' (0x40)
	// between digits and letters.
	odd := []string{"a@x", "a-b@x", "A@x", "ä@x", "a@y.example", "ab@x", "a0@x", "aa@x", "Z@x"}
	var oddAll []dataset.FollowEdge
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
		{"empty", dataset.WorldParts{Traces: flatTraces(0, 1)}},
		{"no edges", dataset.WorldParts{
			Instances: two, Accounts: accounts("a@x", "b@x"), TootsOf: map[string]int{"a@x": 2},
			Traces: flatTraces(2, 3),
		}},
		{"duplicate and self edges", dataset.WorldParts{
			Instances: two, Accounts: accounts("a@x", "b@x", "c@y.example"),
			Edges: []dataset.FollowEdge{
				edge("b@x", "a@x"), edge("a@x", "a@x"), edge("b@x", "a@x"), edge("c@y.example", "a@x"),
				edge("a@x", "b@x"), edge("b@x", "b@x"), edge("b@x", "a@x"), edge("a@x", "a@x"),
			},
			Traces: flatTraces(2, 3),
		}},
		{"unknown endpoints and domains", dataset.WorldParts{
			Instances: two,
			// d@z is on no instance, "nodomain" and "@x" are malformed:
			// all three are dropped from the users, and their edges with them.
			Accounts: accounts("a@x", "b@x", "d@z", "nodomain", "@x", "e@"),
			Edges: []dataset.FollowEdge{
				edge("ghost@x", "a@x"), edge("a@x", "ghost@x"), edge("d@z", "a@x"), edge("a@x", "d@z"),
				edge("nodomain", "a@x"), edge("b@x", "a@x"), edge("ghost@x", "ghost@x"), edge("a@x", "b@x"),
				edge("", ""), edge("b@x", ""), edge("", "b@x"),
			},
			Traces: flatTraces(2, 3),
		}},
		{"byte order is not natural order", dataset.WorldParts{
			Instances: two, Accounts: accounts(odd...), Edges: oddAll, Traces: flatTraces(2, 2),
		}},
		{"byte order, reversed arrival", dataset.WorldParts{
			Instances: two, Accounts: accounts(odd...), Edges: reversed(oddAll), Traces: flatTraces(2, 2),
		}},
		{"shared long prefix", dataset.WorldParts{
			Instances: two,
			Accounts:  accounts(long+"@x", long+"a@x", long+"b@x", long+"@y.example", long[:len(long)-1]+"@x"),
			Edges: []dataset.FollowEdge{
				edge(long+"b@x", long+"@x"), edge(long+"a@x", long+"@x"), edge(long+"@y.example", long+"@x"),
				edge(long+"@x", long+"b@x"), edge(long+"@x", long+"a@x"), edge(long[:len(long)-1]+"@x", long+"a@x"),
				edge(long+"@x", long[:len(long)-1]+"@x"),
			},
			Traces: flatTraces(2, 2),
		}},
		{"to repeats in runs, then returns", dataset.WorldParts{
			Instances: two, Accounts: accounts("a@x", "b@x", "c@x"),
			Edges: []dataset.FollowEdge{
				edge("b@x", "a@x"), edge("c@x", "a@x"), edge("a@x", "ghost@x"), edge("b@x", "ghost@x"),
				edge("a@x", "c@x"), edge("b@x", "a@x"), edge("c@x", "ghost@x"), edge("c@x", "c@x"),
			},
			Traces: flatTraces(2, 2),
		}},
		{"provenance set", dataset.WorldParts{
			Instances: two, Accounts: accounts("a@x", "b@y.example"), Edges: []dataset.FollowEdge{edge("b@y.example", "a@x")},
			Traces: flatTraces(2, 2), Days: 3,
			Provenance: []dataset.CrawlProvenance{
				{Outcome: dataset.CrawlFull}, {Outcome: dataset.CrawlPartial, Fault: "torn page"},
			},
		}},
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
				if len(p.Edges) < cfg.Users/4 {
					t.Fatalf("only %d edges: the generated parts exercise nothing", len(p.Edges))
				}
				sameAssembly(t, p)
			})
		}
	}
}

func reversed(es []dataset.FollowEdge) []dataset.FollowEdge {
	out := slices.Clone(es)
	slices.Reverse(out)
	return out
}

// FuzzAssemble reads the input as a list of account names drawn from a
// small alphabet that straddles '@' in byte order — so that names are
// prefixes of each other, collide, or are malformed — and a list of edges
// between them, and holds Assemble to refAssemble.
func FuzzAssemble(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 9, 0x81, 7, 7, 7, 0, 1, 1, 0, 2, 1, 2, 1})
	f.Add([]byte("\x08abcdefghijklmnopqrstuvwxyz0123456789\x00\x01\x01\x00\x02\x00\x00\x02\x03\x07\x07\x03"))
	f.Add(bytes.Repeat([]byte{5, 0xf3, 0x1c}, 40))
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
			Accounts: map[string]struct{}{},
			TootsOf:  map[string]int{},
			Traces:   flatTraces(3, 2),
		}
		if next()&1 == 1 {
			p.Provenance = make([]dataset.CrawlProvenance, 3)
		}
		var pool []string
		for n := next() % 24; n > 0; n-- {
			var user []byte
			for k := next() % 5; k > 0; k-- {
				user = append(user, alphabet[next()%len(alphabet)])
			}
			name := string(user) + "@" + domains[next()%len(domains)]
			pool = append(pool, name)
			if next()%8 != 0 { // some names appear in edges only
				p.Accounts[name] = struct{}{}
				p.TootsOf[name] = next() % 4
			}
		}
		for n := next() % 64; n > 0 && len(pool) > 0; n-- {
			p.Edges = append(p.Edges, dataset.FollowEdge{From: pool[next()%len(pool)], To: pool[next()%len(pool)]})
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
	b.Logf("%d accounts, %d edges", len(p.Accounts), len(p.Edges))
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
