package dataset

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// mergeBase builds a tiny assembled world covering slots [0,4): two
// instances with authors (a.x, c.x), one metadata-only instance (b.x), a
// follower edge from b.x, and a never-seen instance (d.x).
func mergeBase(t *testing.T) (*World, []string) {
	t.Helper()
	ts := &sim.TraceSet{SlotsPerDay: SlotsPerDay, Traces: []*sim.Trace{
		sim.NewTrace(4), sim.NewTrace(4), sim.NewTrace(4), sim.NewTrace(4),
	}}
	ts.Traces[1].SetDown(1)
	ts.Traces[3].SetDownRange(0, 4)
	parts := WorldParts{
		Instances: []Instance{
			{ID: 0, Domain: "a.x", GoneDay: -1, Software: SoftwareMastodon, Open: true, Users: 2, Toots: 5},
			{ID: 1, Domain: "b.x", GoneDay: -1, Software: SoftwarePleroma, Users: 1, Toots: 1},
			{ID: 2, Domain: "c.x", GoneDay: -1, Software: SoftwareMastodon, Users: 1, Toots: 4},
			{ID: 3, Domain: "d.x", GoneDay: -1},
		},
		Accounts:  []string{"u1@a.x", "u2@a.x", "w@c.x", "f1@b.x"},
		Toots:     []int{3, 2, 4},
		Followers: [][]int32{{3}},
		Traces:    ts,
		Days:      0,
	}
	return Assemble(parts)
}

// scrape is the id form of follower → followee pairs, as a window delta
// carries a follower scrape: every account once, in first-seen order, and
// each followee's followers in the order given.
func scrape(pairs ...[2]string) (accounts []string, followers [][]int32) {
	id := map[string]int32{}
	of := func(acct string) int32 {
		k, ok := id[acct]
		if !ok {
			k = int32(len(accounts))
			id[acct] = k
			accounts = append(accounts, acct)
			followers = append(followers, nil)
		}
		return k
	}
	for _, p := range pairs {
		from, to := of(p[0]), of(p[1])
		followers[to] = append(followers[to], from)
	}
	return accounts, followers
}

func window(start, slots int, domains ...string) *WindowDelta {
	ts := &sim.TraceSet{SlotsPerDay: SlotsPerDay, Traces: make([]*sim.Trace, len(domains))}
	for i := range domains {
		ts.Traces[i] = sim.NewTrace(slots)
	}
	return &WindowDelta{
		StartSlot: start,
		Slots:     slots,
		Domains:   domains,
		Traces:    ts,
		Meta:      make([]WindowMeta, len(domains)),
		Crawl:     make([]CrawlOutcome, len(domains)),
		TootsOf:   map[string]int{},
	}
}

func userByName(t *testing.T, w *World, names []string, acct string) *User {
	t.Helper()
	for i, n := range names {
		if n == acct {
			return &w.Users[i]
		}
	}
	return nil
}

func TestMergeFoldSemantics(t *testing.T) {
	prev, prevNames := mergeBase(t)
	d := window(4, 4, "a.x", "b.x", "c.x", "d.x")
	// a.x: delta-fetched, two new toots by u1 plus a brand-new author.
	d.Crawl[0] = CrawlDelta
	d.TootsOf["u1@a.x"] = 2
	d.TootsOf["u3@a.x"] = 1
	d.Meta[0] = WindowMeta{Seen: true, Software: SoftwareMastodon, Open: false, Users: 3, Toots: 8}
	// b.x: blocks crawling now.
	d.Crawl[1] = CrawlBlocked
	// c.x: offline at the delta crawl — its carried harvest must drop.
	d.Crawl[2] = CrawlOffline
	d.Traces.Traces[2].SetDownRange(2, 4)
	// d.x: first harvest ever (was never seen online).
	d.Crawl[3] = CrawlFull
	d.TootsOf["n1@d.x"] = 2
	d.Meta[3] = WindowMeta{Seen: true, Software: SoftwareMastodon, Open: true, Users: 1, Toots: 2}
	d.Accounts, d.Followers = scrape([2]string{"f2@b.x", "u1@a.x"})

	w, names, err := Merge(prev, prevNames, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Instances) != 4 || w.Traces.Slots() != 8 {
		t.Fatalf("merged %d instances over %d slots", len(w.Instances), w.Traces.Slots())
	}

	// Harvest folding: extended, carried, dropped, fresh.
	if u := userByName(t, w, names, "u1@a.x"); u == nil || u.Toots != 5 {
		t.Fatalf("u1@a.x = %+v, want 3+2 toots", u)
	}
	if u := userByName(t, w, names, "u2@a.x"); u == nil || u.Toots != 2 {
		t.Fatalf("u2@a.x = %+v, want carried 2 toots", u)
	}
	if u := userByName(t, w, names, "u3@a.x"); u == nil || u.Toots != 1 {
		t.Fatalf("u3@a.x = %+v, want fresh author", u)
	}
	if u := userByName(t, w, names, "w@c.x"); u != nil {
		t.Fatalf("w@c.x survived its instance going offline at the final crawl: %+v", u)
	}
	if u := userByName(t, w, names, "n1@d.x"); u == nil || u.Toots != 2 {
		t.Fatalf("n1@d.x = %+v, want first harvest", u)
	}

	// Edges come from the final scrape alone: f1's old edge is gone, f2's
	// new one is present.
	if userByName(t, w, names, "f1@b.x") != nil {
		t.Fatal("stale scrape account f1@b.x survived the merge")
	}
	if u := userByName(t, w, names, "f2@b.x"); u == nil {
		t.Fatal("fresh scrape account f2@b.x missing")
	}
	if w.Social.NumEdges() != 1 {
		t.Fatalf("merged social graph has %d edges, want 1", w.Social.NumEdges())
	}

	// Metadata: a.x superseded, b.x and c.x carried, d.x freshly seen.
	if in := w.Instances[0]; in.Users != 3 || in.Toots != 8 || in.Open {
		t.Fatalf("a.x meta not superseded: %+v", in)
	}
	if in := w.Instances[1]; in.Software != SoftwarePleroma || !in.BlocksCrawl {
		t.Fatalf("b.x = %+v, want carried Pleroma meta and BlocksCrawl", in)
	}
	if in := w.Instances[2]; in.Toots != 4 || in.BlocksCrawl {
		t.Fatalf("c.x meta not carried: %+v", in)
	}
	if in := w.Instances[3]; in.Users != 1 {
		t.Fatalf("d.x meta not recorded: %+v", in)
	}

	// Traces concatenate: b.x's old down bit at slot 1, c.x's new outage
	// at merged slots [6,8), d.x all-down past carried over.
	if !w.Traces.Traces[1].IsDown(1) || w.Traces.Traces[1].CountDown(0, 8) != 1 {
		t.Fatal("b.x trace not carried")
	}
	if got := w.Traces.Traces[2].Outages(0, 8); len(got) != 1 || got[0] != (sim.Outage{Start: 6, End: 8}) {
		t.Fatalf("c.x merged outages = %v", got)
	}
	if w.Traces.Traces[3].CountDown(0, 4) != 4 || w.Traces.Traces[3].CountDown(4, 8) != 0 {
		t.Fatal("d.x down past not preserved")
	}
}

func TestMergeUnprobedDomainDropsHarvest(t *testing.T) {
	prev, prevNames := mergeBase(t)
	d := window(4, 2, "a.x") // b.x, c.x, d.x unobserved this window
	d.Crawl[0] = CrawlDelta
	w, names, err := Merge(prev, prevNames, d)
	if err != nil {
		t.Fatal(err)
	}
	if u := userByName(t, w, names, "w@c.x"); u != nil {
		t.Fatal("author on an unprobed domain survived")
	}
	if u := userByName(t, w, names, "u1@a.x"); u == nil || u.Toots != 3 {
		t.Fatalf("u1@a.x = %+v, want carried harvest", u)
	}
	// Unobserved window = down, for every unprobed domain.
	if w.Traces.Traces[2].CountDown(4, 6) != 2 {
		t.Fatal("c.x unobserved window not backfilled as down")
	}
	if w.Traces.Traces[0].CountDown(4, 6) != 0 {
		t.Fatal("a.x probed window wrongly down")
	}
}

func TestMergeNewDomainJoins(t *testing.T) {
	prev, prevNames := mergeBase(t)
	d := window(4, 2, "a.x", "b.x", "c.x", "d.x", "e.x")
	for i := range d.Crawl {
		d.Crawl[i] = CrawlDelta
	}
	d.Crawl[3] = CrawlFull
	d.Crawl[4] = CrawlFull
	d.TootsOf["z@e.x"] = 7
	d.Meta[4] = WindowMeta{Seen: true, Software: SoftwareMastodon, Users: 1, Toots: 7}
	w, names, err := Merge(prev, prevNames, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Instances) != 5 || w.Instances[4].Domain != "e.x" || w.Instances[4].ID != 4 {
		t.Fatalf("new domain not appended: %+v", w.Instances)
	}
	if u := userByName(t, w, names, "z@e.x"); u == nil || u.Toots != 7 || u.Instance != 4 {
		t.Fatalf("z@e.x = %+v", u)
	}
	if w.Traces.Traces[4].CountDown(0, 4) != 4 {
		t.Fatal("new domain's pre-discovery past not backfilled as down")
	}
}

// TestMergeCommutesAndIsDeterministic: folding two disjoint windows must
// not depend on argument order, and repeated merges must be byte-stable.
func TestMergeCommutesAndIsDeterministic(t *testing.T) {
	build := func(order bool) []byte {
		prev, prevNames := mergeBase(t)
		d1 := window(4, 2, "a.x", "b.x", "c.x", "d.x")
		for i := range d1.Crawl {
			d1.Crawl[i] = CrawlDelta
		}
		d1.Crawl[3] = CrawlFull
		d1.TootsOf["u1@a.x"] = 1
		d1.Accounts, d1.Followers = scrape([2]string{"u2@a.x", "u1@a.x"})
		d1.Traces.Traces[1].SetDown(0)

		d2 := window(6, 3, "a.x", "b.x", "c.x", "d.x")
		for i := range d2.Crawl {
			d2.Crawl[i] = CrawlDelta
		}
		d2.Crawl[2] = CrawlOffline
		d2.TootsOf["u1@a.x"] = 2
		d2.Meta[0] = WindowMeta{Seen: true, Software: SoftwareMastodon, Users: 4, Toots: 9}
		d2.Accounts, d2.Followers = scrape([2]string{"f1@b.x", "u1@a.x"}, [2]string{"u2@a.x", "u1@a.x"})

		var w *World
		var err error
		if order {
			w, _, err = Merge(prev, prevNames, d1, d2)
		} else {
			w, _, err = Merge(prev, prevNames, d2, d1)
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ab, ba := build(true), build(false)
	if !bytes.Equal(ab, ba) {
		t.Fatal("merge of disjoint windows depends on argument order")
	}
	if again := build(true); !bytes.Equal(ab, again) {
		t.Fatal("merge is not byte-deterministic")
	}
}

func TestMergeRejectsBadInput(t *testing.T) {
	prev, prevNames := mergeBase(t)
	cases := map[string]func() ([]*WindowDelta, *World, []string){
		"no deltas": func() ([]*WindowDelta, *World, []string) {
			return nil, prev, prevNames
		},
		"gap before window": func() ([]*WindowDelta, *World, []string) {
			return []*WindowDelta{window(5, 2, "a.x")}, prev, prevNames
		},
		"overlapping windows": func() ([]*WindowDelta, *World, []string) {
			return []*WindowDelta{window(4, 3, "a.x"), window(5, 2, "a.x")}, prev, prevNames
		},
		"duplicate domain": func() ([]*WindowDelta, *World, []string) {
			return []*WindowDelta{window(4, 2, "a.x", "a.x")}, prev, prevNames
		},
		"toots from unprobed domain": func() ([]*WindowDelta, *World, []string) {
			d := window(4, 2, "a.x")
			d.TootsOf["q@zz.x"] = 1
			return []*WindowDelta{d}, prev, prevNames
		},
		"toots from offline domain": func() ([]*WindowDelta, *World, []string) {
			d := window(4, 2, "a.x")
			d.Crawl[0] = CrawlOffline
			d.TootsOf["u1@a.x"] = 1
			return []*WindowDelta{d}, prev, prevNames
		},
		"non-positive count": func() ([]*WindowDelta, *World, []string) {
			d := window(4, 2, "a.x")
			d.TootsOf["u1@a.x"] = 0
			return []*WindowDelta{d}, prev, prevNames
		},
		"follower id out of range": func() ([]*WindowDelta, *World, []string) {
			d := window(4, 2, "a.x")
			d.Accounts, d.Followers = []string{"u1@a.x"}, [][]int32{{1}}
			return []*WindowDelta{d}, prev, prevNames
		},
		"misaligned traces": func() ([]*WindowDelta, *World, []string) {
			d := window(4, 2, "a.x")
			d.Traces = &sim.TraceSet{Traces: []*sim.Trace{sim.NewTrace(3)}}
			return []*WindowDelta{d}, prev, prevNames
		},
		"names mismatch": func() ([]*WindowDelta, *World, []string) {
			return []*WindowDelta{window(4, 2, "a.x")}, prev, prevNames[:1]
		},
		"previous world without traces": func() ([]*WindowDelta, *World, []string) {
			return []*WindowDelta{window(0, 2, "a.x")}, &World{}, nil
		},
	}
	for name, mk := range cases {
		deltas, w, names := mk()
		if _, _, err := Merge(w, names, deltas...); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
