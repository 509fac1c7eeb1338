package instance

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vclock"
)

// refLoadWorld is LoadWorld as it was until PR 23, verbatim: the world
// enacted event by event through the servers' own entry points. It defines
// the state LoadWorld computes.
func refLoadWorld(ctx context.Context, w *dataset.World, opts LoadOptions) (*Network, error) {
	if opts.MaxTootsPerUser <= 0 {
		opts.MaxTootsPerUser = 10
	}
	if opts.Now.IsZero() {
		opts.Now = dataset.Day(w.Days)
	}
	n := NewNetworkClock(opts.Clock)
	if opts.FederationLatency > 0 {
		n.Bus.SetLatency(opts.Clock, opts.FederationLatency)
	}

	for i := range w.Instances {
		in := &w.Instances[i]
		srv := n.Add(Config{
			Domain:      in.Domain,
			Software:    string(in.Software),
			Open:        in.Open,
			BlocksCrawl: in.BlocksCrawl,
		})
		if opts.OfflineGone && in.GoneDay >= 0 {
			srv.SetOnline(false)
		}
	}

	// Accounts.
	for i := range w.Users {
		u := &w.Users[i]
		srv := n.Server(w.Instances[u.Instance].Domain)
		if _, err := srv.CreateAccount(UserName(u.ID), u.Private, true, dataset.Day(u.JoinDay)); err != nil {
			return nil, err
		}
	}

	// Follows: local edges directly, remote edges through the federation
	// handshake (which installs the push subscriptions).
	for ui := range w.Users {
		u := &w.Users[ui]
		srv := n.Server(w.Instances[u.Instance].Domain)
		for _, v := range w.Social.Out(int32(ui)) {
			target := &w.Users[v]
			if target.Instance == u.Instance {
				if err := srv.FollowLocal(UserName(u.ID), UserName(target.ID)); err != nil {
					return nil, err
				}
				continue
			}
			remote := federation.Actor{
				User:   UserName(target.ID),
				Domain: w.Instances[target.Instance].Domain,
			}
			if err := srv.FollowRemote(ctx, UserName(u.ID), remote); err != nil {
				return nil, err
			}
		}
	}

	// Toots: capped per user, timestamps spread over the user's lifetime.
	for ui := range w.Users {
		u := &w.Users[ui]
		count := u.Toots
		if count > opts.MaxTootsPerUser {
			count = opts.MaxTootsPerUser
		}
		if count == 0 {
			continue
		}
		srv := n.Server(w.Instances[u.Instance].Domain)
		for k := 0; k < count; k++ {
			content := fmt.Sprintf("toot %d from %s", k, UserName(u.ID))
			var tags []string
			if k%5 == 0 {
				tags = []string{"fediverse"}
			}
			at := opts.Now.Add(-time.Duration(count-k) * time.Minute)
			if _, err := srv.PostToot(ctx, UserName(u.ID), content, tags, at); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

// sameState holds every server of got to the state of its twin in ref:
// everything a Server holds that a request can observe, compared in a form
// that does not depend on row numbering or actor intern order.
func sameState(t *testing.T, stage string, ref, got *Network) {
	t.Helper()
	if !reflect.DeepEqual(ref.Domains(), got.Domains()) {
		t.Fatalf("%s: domains %v, want %v", stage, got.Domains(), ref.Domains())
	}
	for _, d := range ref.Domains() {
		if diff := serverDiff(ref.Server(d), got.Server(d)); diff != "" {
			t.Fatalf("%s: %s: %s", stage, d, diff)
		}
	}
}

// serverDiff names the first difference between two servers' states, or "".
func serverDiff(r, g *Server) string {
	if rs, gs := r.Stats(), g.Stats(); rs != gs {
		return fmt.Sprintf("stats %+v, want %+v", gs, rs)
	}
	if !reflect.DeepEqual(r.subs, g.subs) {
		return "subscription tables differ"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	g.mu.RLock()
	defer g.mu.RUnlock()
	if r.online != g.online || r.nextID != g.nextID || r.statuses != g.statuses || r.boosts != g.boosts {
		return fmt.Sprintf("online %v nextID %d statuses %d boosts %d, want %v %d %d %d",
			g.online, g.nextID, g.statuses, g.boosts, r.online, r.nextID, r.statuses, r.boosts)
	}
	for k := range r.pages.gens {
		if rg, gg := r.pages.gens[k].Load(), g.pages.gens[k].Load(); rg != gg {
			return fmt.Sprintf("generation of page kind %d is %d, want %d", k, gg, rg)
		}
	}
	if len(r.accounts) != len(g.accounts) {
		return fmt.Sprintf("%d accounts, want %d", len(g.accounts), len(r.accounts))
	}
	for name, ra := range r.accounts {
		ga := g.accounts[name]
		if ga == nil {
			return "no account " + name
		}
		if ra.Name != ga.Name || !ra.CreatedAt.Equal(ga.CreatedAt) || ra.Private != ga.Private ||
			ra.following != ga.following || ra.toots != ga.toots || ra.boosts != ga.boosts ||
			len(ra.followers) != len(ga.followers) {
			return fmt.Sprintf("account %s is %+v, want %+v", name, *ga, *ra)
		}
		for i := range ra.followers {
			if rf, gf := r.store.actors[ra.followers[i]], g.store.actors[ga.followers[i]]; rf != gf {
				return fmt.Sprintf("follower %d of %s is %v, want %v", i, name, gf, rf)
			}
		}
	}
	for _, tl := range []struct {
		name string
		r, g []uint32
	}{{"local", r.store.local, g.store.local}, {"federated", r.store.federated, g.store.federated}} {
		if len(tl.r) != len(tl.g) {
			return fmt.Sprintf("%s timeline has %d rows, want %d", tl.name, len(tl.g), len(tl.r))
		}
		for i := range tl.r {
			if !sameRow(&r.store, tl.r[i], &g.store, tl.g[i], r.cfg.Domain) {
				return fmt.Sprintf("%s timeline differs at %d: %+v, want %+v", tl.name, i,
					g.store.get(tl.g[i], g.cfg.Domain), r.store.get(tl.r[i], r.cfg.Domain))
			}
		}
	}
	return ""
}

// sameRow compares two resting rows by what they say, not where they sit:
// flags, content, boost id, tags and note id part by part.
func sameRow(rs *tootStore, ri uint32, gs *tootStore, gi uint32, domain string) bool {
	r, g := &rs.rows[ri], &gs.rows[gi]
	rb, rt, rc := rs.parts(r)
	gb, gt, gc := gs.parts(g)
	return r.id == g.id && r.unixNano == g.unixNano && r.flags == g.flags &&
		rs.actors[r.author] == gs.actors[g.author] &&
		bytes.Equal(rc, gc) && bytes.Equal(rb, gb) && bytes.Equal(rt, gt) &&
		rs.noteID(r, domain) == gs.noteID(g, domain)
}

// samePage GETs path from both servers and holds status, every header and
// the body together; it returns the shared status and body.
func samePage(t *testing.T, stage string, r, g *Server, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr, gr := httptest.NewRecorder(), httptest.NewRecorder()
	r.ServeHTTP(rr, req)
	g.ServeHTTP(gr, req)
	if rr.Code != gr.Code || !reflect.DeepEqual(rr.Header(), gr.Header()) || !bytes.Equal(rr.Body.Bytes(), gr.Body.Bytes()) {
		t.Fatalf("%s: %s%s: got %d %v %.200q, want %d %v %.200q", stage, r.Domain(), path,
			gr.Code, gr.Header(), gr.Body.Bytes(), rr.Code, rr.Header(), rr.Body.Bytes())
	}
	return rr.Code, rr.Body.Bytes()
}

// samePages walks every GET page of every server on both networks (see
// walkPages), the head page also as the server's online state serves it.
func samePages(t *testing.T, stage string, w *dataset.World, ref, got *Network) {
	t.Helper()
	for i := range w.Instances {
		r, g := ref.Server(w.Instances[i].Domain), got.Server(w.Instances[i].Domain)
		// An offline server answers 503 to everything; look behind it too.
		samePage(t, stage, r, g, "/")
		online := r.Online()
		r.SetOnline(true)
		g.SetOnline(true)
		walkPages(r, func(path string) (int, []byte) { return samePage(t, stage, r, g, path) })
		r.SetOnline(online)
		g.SetOnline(online)
	}
}

// walkPages GETs every page of srv through get: home, instance API, peers,
// both timelines paged to exhaustion (from the head and above a since_id),
// and every follower page of every account.
func walkPages(srv *Server, get func(path string) (int, []byte)) {
	for _, path := range []string{"/", "/about", "/api/v1/instance", "/api/v1/instance/peers", "/users/nobody/followers"} {
		get(path)
	}
	srv.mu.RLock()
	since := srv.nextID / 2
	srv.mu.RUnlock()
	for _, base := range []string{
		"/api/v1/timelines/public?limit=40",
		"/api/v1/timelines/public?local=true&limit=40",
		"/api/v1/timelines/public?limit=17&since_id=" + strconv.FormatInt(since, 10),
		"/api/v1/timelines/public?local=1&since_id=" + strconv.FormatInt(since, 10),
	} {
		path := base
		for {
			code, body := get(path)
			if code != http.StatusOK {
				break
			}
			last := lastStatusID(body)
			if last == "" {
				break
			}
			path = base + "&max_id=" + last
		}
	}
	srv.mu.RLock()
	names := make([]string, 0, len(srv.accounts))
	for name := range srv.accounts {
		names = append(names, name)
	}
	srv.mu.RUnlock()
	for _, name := range names {
		for page := 1; ; page++ {
			_, body := get("/users/" + name + "/followers?page=" + strconv.Itoa(page))
			if !bytes.Contains(body, []byte(`rel="next"`)) {
				break
			}
		}
	}
}

// lastStatusID returns the id of the last status of a timeline page, ""
// for the empty page.
func lastStatusID(body []byte) string {
	i := bytes.LastIndex(body, []byte(`{"id":"`))
	if i < 0 {
		return ""
	}
	rest := body[i+len(`{"id":"`):]
	return string(rest[:bytes.IndexByte(rest, '"')])
}

// liveOn is a script of what happens to a loaded network afterwards — local
// posts (pushed to whoever subscribed during the load), boosts, new remote
// follows between loaded accounts, and inbox traffic from outside — heavy
// enough on the busiest server to trim its federated timeline and compact
// its slab. Run on two networks in the same state it must leave them in the
// same state.
func liveOn(t *testing.T, w *dataset.World, n *Network, deliveries int) {
	t.Helper()
	ctx := context.Background()
	at := dataset.Day(w.Days).Add(time.Hour)
	busiest, most := 0, -1
	perInst := make([]int, len(w.Instances))
	for i := range w.Users {
		if perInst[w.Users[i].Instance]++; perInst[w.Users[i].Instance] > most {
			busiest, most = int(w.Users[i].Instance), perInst[w.Users[i].Instance]
		}
	}
	for i := range w.Users {
		if i%7 != 0 && i > 20 {
			continue
		}
		u := &w.Users[i]
		srv := n.Server(w.Instances[u.Instance].Domain)
		name := UserName(u.ID)
		posted, err := srv.PostToot(ctx, name, "afterwards "+name, []string{"later"}, at)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Boost(ctx, name, posted.NoteID, posted.Author, at.Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		v := &w.Users[(i*31+5)%len(w.Users)]
		if v.Instance != u.Instance {
			target := federation.Actor{User: UserName(v.ID), Domain: w.Instances[v.Instance].Domain}
			if err := srv.FollowRemote(ctx, name, target); err != nil {
				t.Fatal(err)
			}
		} else if err := srv.FollowLocal(name, UserName(v.ID)); err != nil {
			t.Fatal(err)
		}
	}
	// Inbox traffic over HTTP: a stranger follows and unfollows the first
	// user of the busiest instance, a loaded follower unfollows, and far.test
	// floods the federated timeline.
	var first *dataset.User
	for i := range w.Users {
		if int(w.Users[i].Instance) == busiest {
			first = &w.Users[i]
			break
		}
	}
	if first == nil {
		return
	}
	srv := n.Server(w.Instances[busiest].Domain)
	target := federation.Actor{User: UserName(first.ID), Domain: srv.Domain()}
	post := func(a *federation.Activity) {
		t.Helper()
		body, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/inbox", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		online := srv.Online()
		srv.SetOnline(true)
		srv.ServeHTTP(rec, req)
		srv.SetOnline(online)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("inbox: %d %s", rec.Code, rec.Body.String())
		}
	}
	stranger := federation.Actor{User: "stranger", Domain: "far.test"}
	post(&federation.Activity{Type: federation.TypeFollow, From: stranger, Target: target})
	post(&federation.Activity{Type: federation.TypeUndo, From: stranger, Target: target})
	for _, d := range srv.subs.SubscriberDomains(target.User) {
		post(&federation.Activity{Type: federation.TypeUndo, From: federation.Actor{User: "x", Domain: d}, Target: target})
	}
	for i := 0; i < deliveries; i++ {
		a := &federation.Activity{
			Type: federation.TypeCreate,
			From: stranger,
			Note: &federation.Note{
				ID:        "far.test/" + strconv.Itoa(i),
				Author:    stranger,
				Content:   "flood " + strconv.Itoa(i),
				CreatedAt: at.Add(time.Duration(i) * time.Second),
			},
		}
		if i < 100 {
			post(a)
		} else if err := srv.Receive(ctx, a); err != nil { // what the inbox handler calls
			t.Fatal(err)
		}
	}
}

// storedRows counts the slab rows resting on all servers of n.
func storedRows(n *Network) int {
	rows := 0
	for _, d := range n.Domains() {
		s := n.Server(d)
		s.mu.RLock()
		rows += len(s.store.rows)
		s.mu.RUnlock()
	}
	return rows
}

// edgeWorld is hand-built around the cases a per-server construction could
// get wrong: account names that are not user indices, private authors with
// remote followers, users with no toots, toot counts below, at and above the
// cap, a self-follow, a duplicated edge (local and remote), a user whose
// remote followers' domains come out of alphabetical order, an instance
// nobody lives on, a gone instance and one that blocks crawling.
func edgeWorld() *dataset.World {
	users := []dataset.User{
		{ID: 100, Instance: 0, Toots: 3, JoinDay: 1},
		{ID: 101, Instance: 0, Toots: 1, Private: true},
		{ID: 102, Instance: 1, Toots: 25, JoinDay: 2},
		{ID: 103, Instance: 1, Toots: 0},
		{ID: 104, Instance: 3, Toots: 7, Private: true},
		{ID: 105, Instance: 3, Toots: 4},
		{ID: 106, Instance: 4, Toots: 12},
		{ID: 107, Instance: 0, Toots: 0},
		{ID: 108, Instance: 4, Toots: 2},
		{ID: 109, Instance: 0, Toots: 1},
	}
	rows := [][]int32{
		0: {0, 2, 2, 4},    // self-follow, a duplicated remote edge, a private remote author
		1: {0, 0, 5},       // a duplicated local edge
		2: {0, 1, 4, 6, 3}, // follows a private author on a and one on d
		3: {2},
		4: {0, 5},
		5: {4, 2, 8},
		6: {7, 0, 2, 5},
		7: nil,
		8: {6, 3},
		9: {6}, // u106's followers: b.test, then a.test
	}
	return &dataset.World{
		Days: 3,
		Instances: []dataset.Instance{
			{ID: 0, Domain: "a.test", Open: true, GoneDay: -1},
			{ID: 1, Domain: "b.test", GoneDay: 1, Software: dataset.SoftwarePleroma},
			{ID: 2, Domain: "empty.test", Open: true, GoneDay: -1},
			{ID: 3, Domain: "d.test", Open: true, GoneDay: -1, BlocksCrawl: true},
			{ID: 4, Domain: "e.test", GoneDay: 2},
		},
		Users:  users,
		Social: graph.FromRows(rows),
	}
}

// overflowWorld is three instances of 8,000 users with 10 toots each: every
// server sees more than defaultMaxFederated toots, so the federated
// timeline is trimmed (and the slab compacted) during the enactment.
func overflowWorld() *dataset.World {
	const perInstance = 8000
	rng := rand.New(rand.NewPCG(23, 0))
	w := &dataset.World{Days: 5}
	for i, d := range []string{"x.test", "y.test", "z.test"} {
		w.Instances = append(w.Instances, dataset.Instance{ID: int32(i), Domain: d, Open: true, GoneDay: -1})
	}
	n := perInstance * len(w.Instances)
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		// Interleaved homes, so every server's id order mixes local and
		// remote authors all the way through.
		w.Users = append(w.Users, dataset.User{
			ID: int32(i), Instance: int32(i % len(w.Instances)), Toots: 10, Private: i%11 == 0, JoinDay: i % 5,
		})
		for range 3 {
			rows[i] = append(rows[i], int32(rng.IntN(n)))
		}
	}
	w.Social = graph.FromRows(rows)
	return w
}

func benchSizeWorld() *dataset.World {
	cfg := gen.SmallConfig(1)
	cfg.Instances, cfg.Users = 500, 20000
	return gen.Generate(cfg)
}

// TestLoadWorldMatchesReplay holds LoadWorld to the enactment it replaced,
// refLoadWorld: on every world below, at GOMAXPROCS 1, 2 and 4, every
// server's observable state is the reference's; every GET page — status,
// headers (so every ETag) and body — is the reference's; and after the same
// script of posts, boosts, follows and inbox deliveries on both, so that
// ids, trims and compactions carry on from the loaded state, they still are.
func TestLoadWorldMatchesReplay(t *testing.T) {
	cases := []struct {
		name       string
		world      func() *dataset.World
		opts       LoadOptions
		deliveries int  // far.test inbox deliveries in the script
		big        bool // pages compared at one GOMAXPROCS only
	}{
		{name: "edge", world: edgeWorld, deliveries: 50},
		{name: "edge-cap3-offline", world: edgeWorld, opts: LoadOptions{MaxTootsPerUser: 3, OfflineGone: true}, deliveries: 50},
		{name: "edge-cap100", world: edgeWorld, opts: LoadOptions{MaxTootsPerUser: 100, Now: time.Date(2019, 5, 1, 12, 0, 0, 0, time.UTC)}},
		{name: "micro", world: microWorld, opts: LoadOptions{OfflineGone: true}, deliveries: 5},
		{name: "tiny", world: func() *dataset.World { return gen.Generate(gen.TinyConfig(5)) }, opts: LoadOptions{OfflineGone: true}, deliveries: 200},
		{name: "bench-size", world: benchSizeWorld, deliveries: 1000, big: true},
		// Enough deliveries to push every loaded remote row of the busiest
		// server off its timeline and compact the slab under both.
		{name: "overflow", world: overflowWorld, deliveries: 200_000, big: true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.big && testing.Short() {
				t.Skip("large world")
			}
			ctx := context.Background()
			w := tc.world()
			ref, err := refLoadWorld(ctx, w, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var got *Network
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				if got, err = LoadWorld(ctx, w, tc.opts); err != nil {
					t.Fatal(err)
				}
				stage := fmt.Sprintf("loaded at GOMAXPROCS %d", procs)
				sameState(t, stage, ref, got)
				if !tc.big || procs == 4 {
					samePages(t, stage, w, ref, got)
				}
			}
			rowsLoaded := storedRows(got)
			liveOn(t, w, ref, tc.deliveries)
			liveOn(t, w, got, tc.deliveries)
			sameState(t, "after the script", ref, got)
			samePages(t, "after the script", w, ref, got)
			if tc.name == "overflow" && storedRows(got) >= rowsLoaded+tc.deliveries {
				t.Fatalf("%d rows stored after %d loaded and %d deliveries: the script compacted nothing",
					storedRows(got), rowsLoaded, tc.deliveries)
			}
		})
	}
}

// A world with two users of one name on one instance fails the way the
// enactment did: the error names the first repeat in user order.
func TestLoadWorldDuplicateAccount(t *testing.T) {
	w := edgeWorld()
	w.Users[8].ID = 106 // e.test: second u106
	w.Users[7].ID = 100 // a.test: second u100, earlier in user order
	_, refErr := refLoadWorld(context.Background(), w, LoadOptions{})
	_, err := LoadWorld(context.Background(), w, LoadOptions{})
	if refErr == nil || err == nil || err.Error() != refErr.Error() {
		t.Fatalf("error %v, want %v", err, refErr)
	}
	// The same name on two instances is two accounts.
	w = edgeWorld()
	w.Users[2].ID = 100
	if _, err := LoadWorld(context.Background(), w, LoadOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadWorldRejectsRepeatedDomain(t *testing.T) {
	w := edgeWorld()
	w.Instances[2].Domain = "a.test"
	if _, err := LoadWorld(context.Background(), w, LoadOptions{}); err == nil {
		t.Fatal("a world with one domain on two instances loaded")
	}
}

// With a federation latency the load spends on the clock what the
// enactment's handshakes and pushes would have, and leaves the bus slow.
func TestLoadWorldFederationLatency(t *testing.T) {
	const latency = 20 * time.Millisecond
	w := gen.Generate(gen.TinyConfig(5))
	load := func(f func(context.Context, *dataset.World, LoadOptions) (*Network, error)) (*Network, *vclock.Sim) {
		clk := vclock.NewElastic(dataset.Day(0))
		n, err := f(context.Background(), w, LoadOptions{Clock: clk, FederationLatency: latency})
		if err != nil {
			t.Fatal(err)
		}
		return n, clk
	}
	ref, refClk := load(refLoadWorld)
	got, clk := load(LoadWorld)
	if !clk.Now().Equal(refClk.Now()) || clk.Now().Equal(dataset.Day(0)) {
		t.Fatalf("clock at %v after the load, want %v", clk.Now(), refClk.Now())
	}
	sameState(t, "loaded with latency", ref, got)
	liveOn(t, w, ref, 10)
	liveOn(t, w, got, 10)
	if !clk.Now().Equal(refClk.Now()) {
		t.Fatalf("clock at %v after the script, want %v", clk.Now(), refClk.Now())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadWorld(ctx, w, LoadOptions{Clock: vclock.NewElastic(dataset.Day(0)), FederationLatency: latency}); err == nil {
		t.Fatal("a cancelled load with latency succeeded; the enactment's first handshake failed")
	}
}

// BenchmarkLoadWorld is one LoadWorld of the repository benchmark's serve-*
// world (500 instances, 20,000 users, 10 toots a user): bench's
// instance.loadworld_s, and most of simnet.new_s on campaign.
func BenchmarkLoadWorld(b *testing.B) {
	w := benchSizeWorld()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadWorld(context.Background(), w, LoadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// A load allocates what it leaves behind and little else: at most twice the
// heap that stays resident, and at most ten objects an account. The counts
// come from the allocator, so they repeat exactly; building the world event
// by event (an activity, a note and a materialised toot per post, slabs
// grown by doubling) costs three times the bytes and a hundred objects an
// account, and fails here rather than in a benchmark.
func TestLoadWorldAllocationBound(t *testing.T) {
	w := benchSizeWorld()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var before, loaded, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := LoadWorld(context.Background(), w, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&loaded)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	allocated := loaded.TotalAlloc - before.TotalAlloc
	resident := after.HeapAlloc - before.HeapAlloc
	mallocs := loaded.Mallocs - before.Mallocs
	t.Logf("allocated %.1f MB in %d objects for %.1f MB resident, %d accounts",
		float64(allocated)/1e6, mallocs, float64(resident)/1e6, len(w.Users))
	if allocated > 2*resident {
		t.Errorf("the load allocated %d bytes to leave %d resident, more than twice over", allocated, resident)
	}
	if mallocs > 10*uint64(len(w.Users)) {
		t.Errorf("the load made %d allocations for %d accounts, more than 10 each", mallocs, len(w.Users))
	}
}

// TestLoadWorldPaperPopulation loads the paper's 4,328 instances with
// 300,000 of its accounts at 10 toots each — the world `fediserve -config
// paper` must bring up before its first request. Enacted event by event it
// took over seven minutes (the largest instance overflows its federated
// timeline many times over); the ceiling is generous for a shared runner.
// Like the two scale tests it skips itself under -short, and CI's
// paper-scale job prints its "loaded in" line; under -v it also logs the
// resident heap by structure.
func TestLoadWorldPaperPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world")
	}
	cfg := gen.PaperConfig(1)
	cfg.Users, cfg.Days, cfg.MassExpiryDay = 300_000, 8, -1
	w := gen.Generate(cfg)
	base := heapAfterGC()
	start := time.Now()
	n, err := LoadWorld(context.Background(), w, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	resident := heapAfterGC() - base
	var users int
	var statuses int64
	for _, d := range n.Domains() {
		st := n.Server(d).Stats()
		users += st.Users
		statuses += st.Statuses
	}
	t.Logf("paper population of %d instances / %d users / %d statuses loaded in %v; %.0f MB resident, %d B an account",
		len(w.Instances), users, statuses, took, float64(resident)/1e6, resident/int64(len(w.Users)))
	if users != len(w.Users) {
		t.Fatalf("%d accounts loaded, want %d", users, len(w.Users))
	}
	if testing.Verbose() {
		restingBreakdown(t, n, base, len(w.Users))
		runtime.KeepAlive(w)
	}
	if took > 60*time.Second {
		t.Fatalf("load took %v, ceiling 60s", took)
	}
}
