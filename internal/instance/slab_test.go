package instance

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/federation"
)

func deliverRemote(t *testing.T, s *Server, i int) {
	t.Helper()
	err := s.Receive(context.Background(), &federation.Activity{
		Type: federation.TypeCreate,
		From: federation.Actor{User: "u", Domain: "far.test"},
		Note: &federation.Note{
			ID:        fmt.Sprintf("far.test/%d", i),
			Author:    federation.Actor{User: "u", Domain: "far.test"},
			Content:   fmt.Sprintf("remote toot %d", i),
			CreatedAt: time.Unix(int64(i), 0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Trimming the federated timeline must not let dead rows or their arena
// text accumulate: once dead rows outnumber live ones the store compacts,
// so resting memory stays proportional to the live timelines, not to the
// total number of toots ever federated or boosted.
func TestSlabCompactionBoundsMemory(t *testing.T) {
	const maxFed = 16
	ctx := context.Background()
	s := NewServer(Config{Domain: "a.test", Open: true, MaxFederated: maxFed}, nil)
	if _, err := s.CreateAccount("alice", false, false, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := s.PostToot(ctx, "alice", "home toot", nil, time.Unix(int64(k), 0)); err != nil {
			t.Fatal(err)
		}
	}
	bounded := func(stage string) {
		t.Helper()
		s.mu.RLock()
		defer s.mu.RUnlock()
		rows, arena, dead := len(s.store.rows), len(s.store.arena), s.store.dead
		// Live rows: 5 local + at most maxFed federated. Compaction keeps the
		// row table within one trim cycle of that.
		if limit := 5 + 2*maxFed + 1; rows > limit {
			t.Fatalf("%s: row table grew to %d rows (limit %d): compaction is not happening", stage, rows, limit)
		}
		if dead > rows {
			t.Fatalf("%s: dead=%d exceeds rows=%d", stage, dead, rows)
		}
		if arena > 64*1024 {
			t.Fatalf("%s: arena grew to %d bytes: dead text is not being reclaimed", stage, arena)
		}
		if actors := len(s.store.actors); actors != 2 { // alice + the one remote author
			t.Fatalf("%s: actor intern table has %d entries, want 2", stage, actors)
		}
	}
	for i := 0; i < 2000; i++ {
		deliverRemote(t, s, i)
	}
	bounded("after 2000 deliveries")
	// Every delivered id is "far.test/<n>", which a row derives from its
	// author's domain: the arena holds the rows' texts and nothing else.
	s.mu.RLock()
	text := 0
	for _, r := range s.store.rows {
		text += int(r.text.n)
	}
	if extra := len(s.store.arena) - text; extra != 0 {
		t.Errorf("the arena holds %d bytes besides the rows' texts: canonical note ids are stored", extra)
	}
	s.mu.RUnlock()

	// The surviving state must still read back correctly through the API.
	fed := s.PublicTimeline(TimelineFederated, 0, maxFed*2)
	if len(fed) != maxFed {
		t.Fatalf("federated timeline = %d toots, want %d", len(fed), maxFed)
	}
	if fed[0].Content != "remote toot 1999" || fed[0].NoteID != "far.test/1999" {
		t.Fatalf("newest federated toot wrong: %+v", fed[0])
	}
	local := s.PublicTimeline(TimelineLocal, 0, 40)
	if len(local) != 5 {
		t.Fatalf("local timeline = %d toots, want 5 (must survive federated trimming)", len(local))
	}
	if local[0].Content != "home toot" || local[0].Author != (federation.Actor{User: "alice", Domain: "a.test"}) {
		t.Fatalf("local toot corrupted after compaction: %+v", local[0])
	}
	if local[0].NoteID != "a.test/5" {
		t.Fatalf("synthesized NoteID = %q, want a.test/5", local[0].NoteID)
	}

	// A local boost sits on no local timeline: trimmed off the federated
	// one, it is dead like a remote row.
	far := federation.Actor{User: "u", Domain: "far.test"}
	for i := 0; i < 5000; i++ {
		if err := s.Boost(ctx, "alice", "far.test/"+strconv.Itoa(i), far, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	bounded("after 5000 boosts")
	if fed := s.PublicTimeline(TimelineFederated, 0, 1); fed[0].BoostOf != "far.test/4999" {
		t.Fatalf("newest boost reads back as %+v", fed[0])
	}
	if local := s.PublicTimeline(TimelineLocal, 0, 40); len(local) != 5 || local[4].NoteID != "a.test/1" {
		t.Fatalf("local timeline after the boosts: %+v", local)
	}

	// Sustained inbox delivery with the paged API read between deliveries:
	// each head page renders the one new status, and compaction starts the
	// render memo over, so the memo stays within a small factor of what the
	// live rows render to, however many statuses have passed through.
	const rounds = 64 * maxFed
	for i := 0; i < rounds; i++ {
		deliverRemote(t, s, 10_000+i)
		mid := s.PublicTimeline(TimelineFederated, 0, maxFed)[maxFed/2].ID
		for _, maxID := range []int64{0, mid} {
			path := "/api/v1/timelines/public"
			if maxID > 0 {
				path += "?max_id=" + strconv.FormatInt(maxID, 10)
			}
			if got, want := fetchBody(t, s, path), refTimelineBody(s, TimelineFederated, maxID, 0, 20); got != want {
				t.Fatalf("delivery %d, %s:\n  served:       %q\n  materialised: %q", i, path, got, want)
			}
		}
		if _, held := memoBytes(s); held > 3*liveRenderBytes(s) {
			t.Fatalf("delivery %d: the render memo holds %d bytes, live rows render to %d", i, held, liveRenderBytes(s))
		}
	}
	bounded(fmt.Sprintf("after %d deliveries read between", rounds))
}

// A resting row is 40 bytes: the note id, the boosted id and the tags live
// in the text span and the note field, not in spans of their own.
func TestTootRowSize(t *testing.T) {
	if got := unsafe.Sizeof(tootRow{}); got != 40 {
		t.Fatalf("tootRow is %d bytes, want 40", got)
	}
}

// FuzzTootRow holds a row to what was put in it: add then get returns every
// field as given, before and after a compaction moves the row's text. A row
// derives its note id exactly when the id is "<author domain>/<n>" with n
// canonical and below 2^63, and stores any other (a sign, a leading zero,
// 2^63, another domain, an empty number, no slash). A local row with no
// note id reads back the synthesized "<domain>/<ID>".
func FuzzTootRow(f *testing.F) {
	for _, id := range []string{"d/007", "d/+7", "d/-1", "d/9223372036854775808", "d/", "d//1", "d/1/2", "D/1",
		"d/0", "d/42", "d/9223372036854775807", "d12"} {
		f.Add("d", "u", "content", id, "", "", true)
	}
	f.Add("d.test.x", "u", "content", "d.test/1", "", "", true)
	f.Add("a/b", "u", "content", "a/b/5", "", "", true)    // a domain containing "/"
	f.Add("d", "u", "", "d/3", "", "fediverse\nimc", true) // empty content with tags
	f.Add("d", "u", "", "", "far.test/9", "t", false)      // a boost with tags
	f.Add("d", "u", "content", "", "", "", true)           // a remote row with an empty id
	f.Add("d", "u", "content", "", "", "\n", false)        // a local toot with two empty tags
	f.Fuzz(func(t *testing.T, domain, user, content, noteID, boostOf, tagList string, remote bool) {
		var tags []string
		if tagList != "" {
			tags = strings.Split(tagList, "\n")
		}
		author := federation.Actor{User: user, Domain: domain}
		at := time.Unix(1_532_347_200, 123)
		want := Toot{ID: 7, Author: author, Content: content, Hashtags: tags, CreatedAt: at.UTC(),
			Remote: remote, BoostOf: boostOf, NoteID: noteID}
		if noteID == "" && !remote {
			want.NoteID = "home.test/7"
		}
		var st tootStore
		// A row that compaction drops, so that the kept row's text moves.
		st.add(6, at, federation.Actor{User: "x", Domain: "y"}, "gone", "y/01", "y/2", []string{"gone"}, true)
		ri := st.add(7, at, author, content, noteID, boostOf, tags, remote)
		derive := false
		if rest, ok := strings.CutPrefix(noteID, domain+"/"); ok {
			n, err := strconv.ParseUint(rest, 10, 64)
			derive = err == nil && n < 1<<63 && strconv.FormatUint(n, 10) == rest
		}
		if derived := st.rows[ri].flags&tootNoteNum != 0; derived != derive {
			t.Fatalf("note id %q under domain %q: derived = %v, want %v", noteID, domain, derived, derive)
		}
		if got := st.get(ri, "home.test"); !reflect.DeepEqual(got, want) {
			t.Fatalf("get = %+v, want %+v", got, want)
		}
		st.federated, st.dead = []uint32{ri}, 1
		st.compact()
		if got := st.get(st.federated[0], "home.test"); !reflect.DeepEqual(got, want) {
			t.Fatalf("after compact, get = %+v, want %+v", got, want)
		}
	})
}

// A loaded row derives its text (tootSynthText). The same toot stored as
// arena text must say the same: the same status bytes and the same Toot,
// and both again after a compaction, which moves the stored text and must
// leave the derived row's k alone. The derived row is written as
// LoadWorld's fill writes it. Rendering one allocates nothing.
func TestSynthTextMatchesArenaText(t *testing.T) {
	at := time.Unix(1_532_347_200, 123)
	for _, tc := range []struct {
		k      uint32
		user   string
		remote bool
	}{
		{0, "u1", false}, {4, "u1", true}, {5, "u12", false}, {5, "u7", true},
		{1<<32 - 1, "u2399999", true},
		{10, "a\"b\\c<d>&e\u2028\x01", false},  // escaped by AppendJSONStringBytes
		{3, strings.Repeat("long", 30), false}, // outgrows the stack scratch
	} {
		s := NewServer(Config{Domain: "home.test"}, nil)
		st := &s.store
		author := federation.Actor{User: tc.user, Domain: "home.test"}
		var tags []string
		flags, noteID, note := uint8(tootSynthText|tootSynthNote), "", uint64(0)
		if tc.k%5 == 0 {
			tags, flags = []string{"fediverse"}, flags|tootTags
		}
		if tc.remote {
			author.Domain, note = "far.test", uint64(tc.k)+1
			noteID = "far.test/" + strconv.FormatUint(note, 10)
			flags = flags&^tootSynthNote | tootRemote | tootNoteNum
		}
		// A row that compaction drops, so that the stored text moves.
		st.add(1, at, federation.Actor{User: "x", Domain: "y"}, "gone", "y/01", "y/2", []string{"gone"}, true)
		stored := st.add(2, at, author, string(loadedText(nil, tc.k, tc.user)), noteID, "", tags, tc.remote)
		derived := st.addRow(2, at.UnixNano(), st.intern(author), flags, span{off: tc.k}, note)
		want := st.get(stored, "home.test")
		wantBody := s.appendStatusRow(nil, &st.rows[stored])
		check := func(stage string, ri uint32) {
			t.Helper()
			if got := st.get(ri, "home.test"); !reflect.DeepEqual(got, want) {
				t.Errorf("k %d, %q, %s: get = %+v, want %+v", tc.k, tc.user, stage, got, want)
			}
			if got := s.appendStatusRow(nil, &st.rows[ri]); string(got) != string(wantBody) {
				t.Errorf("k %d, %q, %s: status\n%s\nwant\n%s", tc.k, tc.user, stage, got, wantBody)
			}
		}
		check("derived", derived)
		st.federated, st.dead = []uint32{stored, derived}, 1
		st.compact()
		check("stored, compacted", st.federated[0])
		check("derived, compacted", st.federated[1])
		if row := &st.rows[st.federated[1]]; len(tc.user) < 32 && !raceEnabled {
			buf := make([]byte, 0, 1024)
			if allocs := testing.AllocsPerRun(100, func() { buf = s.appendStatusRow(buf[:0], row) }); allocs != 0 {
				t.Errorf("k %d, %q: rendering a derived row made %.0f allocations, want 0", tc.k, tc.user, allocs)
			}
		}
	}
}

// Materialised toots must round-trip every field through the slab rows.
func TestSlabMaterialisesAllFields(t *testing.T) {
	s := NewServer(Config{Domain: "a.test", Open: true}, nil)
	if _, err := s.CreateAccount("alice", false, false, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2018, 7, 23, 12, 0, 0, 0, time.UTC)
	posted, err := s.PostToot(context.Background(), "alice", "hello <world>", []string{"fediverse", "imc"}, at)
	if err != nil {
		t.Fatal(err)
	}
	page := s.PublicTimeline(TimelineLocal, 0, 1)
	if len(page) != 1 {
		t.Fatal("no toot on local timeline")
	}
	got := page[0]
	if got.ID != posted.ID || got.Content != "hello <world>" || got.NoteID != posted.NoteID {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, posted)
	}
	if len(got.Hashtags) != 2 || got.Hashtags[0] != "fediverse" || got.Hashtags[1] != "imc" {
		t.Fatalf("hashtags = %v", got.Hashtags)
	}
	if !got.CreatedAt.Equal(at) {
		t.Fatalf("CreatedAt = %v, want %v", got.CreatedAt, at)
	}
	if got.Remote || got.BoostOf != "" {
		t.Fatalf("flags wrong: %+v", got)
	}

	if err := s.Boost(context.Background(), "alice", posted.NoteID, posted.Author, at.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	fed := s.PublicTimeline(TimelineFederated, 0, 10)
	if len(fed) != 2 {
		t.Fatalf("federated = %d, want 2", len(fed))
	}
	if fed[0].BoostOf != posted.NoteID {
		t.Fatalf("boost row BoostOf = %q, want %q", fed[0].BoostOf, posted.NoteID)
	}
}

// A delivery to an instance whose federated timeline is full costs what one
// to an empty instance does: trimming reslices, it does not copy the index.
// (Copying it was 256 KB and 100+ µs per delivery at the default cap.)
func TestReceivePastCapAllocatesConstant(t *testing.T) {
	const window = 20_000
	s := NewServer(Config{Domain: "a.test", Open: true}, nil)
	for i := 0; i < defaultMaxFederated; i++ {
		deliverRemote(t, s, i)
	}
	far := federation.Actor{User: "u", Domain: "far.test"}
	acts := make([]federation.Activity, window)
	for i := range acts {
		acts[i] = federation.Activity{Type: federation.TypeCreate, From: far, Note: &federation.Note{
			ID: fmt.Sprintf("far.test/%d", defaultMaxFederated+i), Author: far, Content: "one more", CreatedAt: time.Unix(int64(i), 0),
		}}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range acts {
		if err := s.Receive(context.Background(), &acts[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDelivery := (after.TotalAlloc - before.TotalAlloc) / window
	t.Logf("%d bytes allocated per delivery past the cap", perDelivery)
	if perDelivery > 2048 {
		t.Fatalf("%d bytes allocated per delivery past the cap, want a small constant (≤ 2048)", perDelivery)
	}
	if got := len(s.PublicTimeline(TimelineFederated, 0, 40)); got != 40 {
		t.Fatalf("federated head page has %d toots", got)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.store.federated) != defaultMaxFederated {
		t.Fatalf("federated timeline holds %d entries, want %d", len(s.store.federated), defaultMaxFederated)
	}
}

// refIntern is the actor index tootStore.intern replaced: a map from each
// actor to its index, holding a second copy of every key.
type refIntern struct {
	actors []federation.Actor
	idx    map[federation.Actor]uint32
}

func (r *refIntern) intern(a federation.Actor) uint32 {
	if i, ok := r.idx[a]; ok {
		return i
	}
	if r.idx == nil {
		r.idx = make(map[federation.Actor]uint32)
	}
	i := uint32(len(r.actors))
	r.actors = append(r.actors, a)
	r.idx[a] = i
	return i
}

// The open-addressed index interns as the map did: seeded sequences with
// repeats, over actors that share only a user, only a domain, or nothing
// (the zero Actor among them), give the same index at every call and the
// same actor table, across the table's regrowths.
func TestInternMatchesMapIndex(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		users := []string{"", "u0", "u1", "alice", "u10", "u100"}
		domains := []string{"", "a.test", "b.test", "u0", "mastodon.social"}
		var pool []federation.Actor
		for _, u := range users {
			for _, d := range domains {
				pool = append(pool, federation.Actor{User: u, Domain: d})
			}
		}
		for i := range 600 {
			pool = append(pool, federation.Actor{User: "u" + strconv.Itoa(i), Domain: domains[1+i%4]})
		}
		var st tootStore
		var ref refIntern
		sizes := map[int]bool{}
		for step := range 6000 {
			// Early steps draw from a growing prefix, so new actors keep
			// arriving while old ones repeat.
			a := pool[rng.IntN(min(len(pool), 1+step/4))]
			if got, want := st.intern(a), ref.intern(a); got != want {
				t.Fatalf("seed %d step %d: intern(%+v) = %d, want %d", seed, step, a, got, want)
			}
			sizes[len(st.actorIdx)] = true
		}
		if !slices.Equal(st.actors, ref.actors) {
			t.Fatalf("seed %d: actor tables differ", seed)
		}
		if len(sizes) < 4 {
			t.Fatalf("seed %d: the index took %d sizes, want at least three regrowths", seed, len(sizes))
		}
	}
}
