package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/sim"
)

// bigSyntheticWorld builds a world large enough that every chunked table
// spans several sections: >2048 instances, >32768 users, graph adjacency
// and traces past the 256KB chunk target.
func bigSyntheticWorld() *World {
	r := rand.New(rand.NewPCG(42, 43))
	const (
		nInst  = 3000
		nUsers = 70000
		days   = 30
	)
	insts := make([]Instance, nInst)
	for i := range insts {
		insts[i] = Instance{
			ID:            int32(i),
			Domain:        fmt.Sprintf("inst%d.test", i),
			Software:      SoftwareMastodon,
			Country:       "Japan",
			ASN:           r.IntN(300),
			IP:            fmt.Sprintf("10.0.%d.%d", i>>8, i&255),
			CA:            "Let's Encrypt",
			Open:          r.IntN(2) == 0,
			Operator:      OpIndividual,
			CreatedDay:    r.IntN(days),
			GoneDay:       -1,
			Users:         r.IntN(50),
			Toots:         int64(r.IntN(5000)),
			CertIssuedDay: r.IntN(days) - 5,
		}
		if i%7 == 0 {
			insts[i].Categorized = true
			insts[i].Categories = []Category{CatTech, CatArt}
			insts[i].Allowed = []Activity{ActAdvertising}
			insts[i].Prohibited = []Activity{ActSpam}
		}
		if i%13 == 0 {
			insts[i].Blocks = []int32{int32(r.IntN(nInst)), int32(r.IntN(nInst))}
		}
	}
	users := make([]User, nUsers)
	for i := range users {
		users[i] = User{
			ID:       int32(i),
			Instance: int32(r.IntN(nInst)),
			JoinDay:  int32(r.IntN(days)),
			Toots:    int32(r.IntN(200)),
			Boosts:   int32(r.IntN(50)),
			Private:  r.IntN(5) == 0,
		}
	}
	b := graph.NewBuilder(nUsers)
	for e := 0; e < 300000; e++ {
		b.AddEdge(int32(r.IntN(nUsers)), int32(r.IntN(nUsers)))
	}
	social := b.Freeze()
	group := make([]int32, nUsers)
	for i := range users {
		group[i] = users[i].Instance
	}
	ts := sim.NewTraceSet(nInst, days, SlotsPerDay)
	for i := range ts.Traces {
		for k := 0; k < 4; k++ {
			at := r.IntN(days * SlotsPerDay)
			ts.Traces[i].SetDownRange(at, at+r.IntN(200))
		}
	}
	cert := map[int32][]int{}
	for i := 0; i < 200; i++ {
		cert[int32(r.IntN(nInst))] = []int{r.IntN(days), r.IntN(days)}
	}
	return &World{
		Seed:           99,
		Days:           days,
		Instances:      insts,
		Users:          users,
		ASes:           []AS{{ASN: 1, Name: "A", Country: "Japan", Rank: 1, Peers: 10}},
		Social:         social,
		Federation:     social.Induce(group, nInst),
		Traces:         ts,
		CertOutageDays: cert,
	}
}

// requireWorldsEquivalent holds two worlds equal field-by-field: graphs row
// by row (out, in and merged), traces through their canonical encoding.
func requireWorldsEquivalent(t *testing.T, a, b *World) {
	t.Helper()
	if a.Seed != b.Seed || a.Days != b.Days {
		t.Fatalf("headers differ: %d/%d vs %d/%d", a.Seed, a.Days, b.Seed, b.Days)
	}
	if !reflect.DeepEqual(a.Instances, b.Instances) {
		t.Fatal("instance tables differ")
	}
	if !reflect.DeepEqual(a.Users, b.Users) {
		t.Fatal("user tables differ")
	}
	if !reflect.DeepEqual(a.ASes, b.ASes) {
		t.Fatal("AS tables differ")
	}
	if !reflect.DeepEqual(a.CertOutageDays, b.CertOutageDays) {
		t.Fatal("cert outage tables differ")
	}
	if !reflect.DeepEqual(a.Social, b.Social) {
		t.Fatal("social graphs differ")
	}
	if !reflect.DeepEqual(a.Federation, b.Federation) {
		t.Fatal("federation graphs differ")
	}
	marshal := func(ts *sim.TraceSet) []byte {
		if ts == nil {
			return nil
		}
		b := binary.AppendUvarint(nil, uint64(ts.SlotsPerDay))
		for _, tr := range ts.Traces {
			b = tr.AppendBinary(b)
		}
		return b
	}
	if !bytes.Equal(marshal(a.Traces), marshal(b.Traces)) {
		t.Fatal("traces differ")
	}
}

func saveColumnar(t *testing.T, w *World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The round-trip oracle: Save→Load must land on a world equivalent to the
// original, and Save→Load→Save must be byte-identical.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world *World
	}{
		{"sample", sampleWorld()},
		{"big", bigSyntheticWorld()},
		{"empty", &World{Seed: 1, Days: 0}},
		{"nographs", &World{Seed: 2, Days: 3, Instances: []Instance{{ID: 0, Domain: "x.test", GoneDay: -1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b1 := saveColumnar(t, tc.world)
			viaCol, err := Load(bytes.NewReader(b1))
			if err != nil {
				t.Fatal(err)
			}
			requireWorldsEquivalent(t, tc.world, viaCol)
			if b2 := saveColumnar(t, viaCol); !bytes.Equal(b1, b2) {
				t.Fatal("Save→Load→Save is not byte-identical")
			}
		})
	}
}

// A gzip stream — the framing of the deleted gob format — is no longer
// sniffed: it gets the bad-magic error like any other foreign file.
func TestLoadRejectsGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("a gob-encoded world"))
	zw.Close()
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("gzip file: %v", err)
	}
}

// A file whose graphs or instance ids disagree with its tables must fail at
// Load, in the descriptive-error style, instead of panicking the first
// reader that indexes one by the other (instance.LoadWorld walks
// Social.Out(u) for every user u and Instances[User.Instance]).
func TestLoadRejectsInconsistentWorld(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(w *World)
		want   string
	}{
		{"social-nodes", func(w *World) { w.Social = graph.NewBuilder(1).Freeze() }, "graph 0 has 1 nodes"},
		{"federation-nodes", func(w *World) { w.Federation = graph.NewBuilder(5).Freeze() }, "graph 1 has 5 nodes"},
		{"user-instance", func(w *World) { w.Users[2].Instance = 7 }, "user instance id 7 out of range"},
		{"user-instance-negative", func(w *World) { w.Users[0].Instance = -1 }, "user instance id -1 out of range"},
		{"block", func(w *World) { w.Instances[1].Blocks = []int32{0, 2} }, "block id 2 out of range"},
		{"cert-outage", func(w *World) { w.CertOutageDays[7] = []int{1} }, "cert-outage id 7 out of range"},
		{"cert-outage-negative", func(w *World) { w.CertOutageDays[-3] = []int{1} }, "cert-outage id -3 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := sampleWorld()
			tc.mutate(w)
			_, err := Load(bytes.NewReader(saveColumnar(t, w)))
			if err == nil {
				t.Fatal("inconsistent world accepted")
			}
			for _, part := range []string{tc.want, "FDWC v2", "offset"} {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("error lacks %q: %v", part, err)
				}
			}
		})
	}
}

type hostileFile struct {
	name, want string
	file       []byte
}

// hostileTraceFiles returns world files whose traces hold what Save never
// writes, each with the error Load must give. The first trace is 70 slots
// down from 64 on, and the second is replaced in each file: by a length
// past int32, by run counts its bytes or its slots cannot hold, by an
// empty run, by two runs that touch, by a run past its end and by a run
// cut short. The last file has one trace for two instances, which Fig 7
// and Fig 8 would index past.
func hostileTraceFiles(tb testing.TB) []hostileFile {
	w := sampleWorld()
	odd := sim.NewTrace(70)
	odd.SetDownRange(64, 70)
	w.Traces = &sim.TraceSet{SlotsPerDay: SlotsPerDay, Traces: []*sim.Trace{odd, sim.NewTrace(0)}}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	good := bytes.Clone(buf.Bytes())
	// second is good with its trace rows section holding odd, then trace.
	second := func(trace []byte) []byte {
		rows := odd.AppendBinary(binary.LittleEndian.AppendUint32([]byte{0}, 2))
		return replaceSection(tb, good, secTraceRows, append(rows, trace...))
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	w.Traces.Traces = w.Traces.Traces[:1]
	buf.Reset()
	if err := w.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return []hostileFile{
		{"n-past-int32", "trace 1: sim: trace length 2147483648 past 2147483647 slots", second(uv(math.MaxInt32+1, 0))},
		{"runs-past-bytes", "trace 1: sim: 3 runs cannot fit 70 slots in 4 bytes", second(uv(70, 3, 0, 1, 2, 1))},
		{"runs-past-slots", "trace 1: sim: 3 runs cannot fit 4 slots in 6 bytes", second(uv(4, 3, 0, 1, 1, 1, 1, 1))},
		{"empty-run", "trace 1: sim: run 0 is empty", second(uv(70, 1, 5, 0))},
		{"touching-runs", "trace 1: sim: run 1 touches the one before it", second(uv(70, 2, 0, 3, 0, 6))},
		{"run-past-n", "trace 1: sim: run 0 ends past slot 70", second(uv(70, 1, 64, 7))},
		{"truncated-run", "trace 1: sim: trace truncated at byte 3", second(append(uv(70, 1, 64), 0x86))},
		{"fewer-traces", "1 traces for 2 instances", buf.Bytes()},
	}
}

// replaceSection returns file with the payload of its one section tagged
// tag replaced by payload.
func replaceSection(tb testing.TB, file []byte, tag byte, payload []byte) []byte {
	_, k := binary.Uvarint(file[len(colMagic):])
	for off := len(colMagic) + k; off < len(file); {
		n, k := binary.Uvarint(file[off+1:])
		end := off + 1 + k + int(n)
		if file[off] == tag {
			out := append(bytes.Clone(file[:off+1]), binary.AppendUvarint(nil, uint64(len(payload)))...)
			return append(append(out, payload...), file[end:]...)
		}
		off = end
	}
	tb.Fatalf("no section tagged %d", tag)
	return nil
}

// hostileColumnFiles returns world files whose user columns hold what no
// world can, each with the error Load must give: a toot count one past
// int32, a join day one below it (both the same length as the int32 bound
// they replace, so only the value differs), and a user whose id is not its
// row.
func hostileColumnFiles(tb testing.TB) []hostileFile {
	save := func(w *World) []byte {
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	w := sampleWorld()
	w.Users[1].Toots = math.MaxInt32
	w.Users[2].JoinDay = math.MinInt32
	good := save(w)
	patch := func(from, to int64) []byte {
		zz := func(x int64) []byte { return binary.AppendUvarint(nil, uint64(x)<<1^uint64(x>>63)) }
		old, repl := zz(from), zz(to)
		if len(old) != len(repl) || bytes.Count(good, old) != 1 {
			tb.Fatalf("value %d is not once in the saved file, or not as long as %d", from, to)
		}
		return bytes.Replace(good, old, repl, 1)
	}
	w = sampleWorld()
	w.Users[1].ID = 5
	return []hostileFile{
		{"toots-past-int32", "value 2147483648 overflows a 32-bit column", patch(math.MaxInt32, math.MaxInt32+1)},
		{"join-day-below-int32", "value -2147483649 overflows a 32-bit column", patch(math.MinInt32, math.MinInt32-1)},
		{"user-id-not-row", "row 1 holds id 5", save(w)},
	}
}

// afterSocialRows cuts w's file at the end of its social graph's last rows
// section, where Load starts building that graph's in-rows, and corrupts
// the section tag there in a second file; each with the error Load must
// give, which names the offset.
func afterSocialRows(tb testing.TB, w *World) []hostileFile {
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	file := buf.Bytes()
	at := -1
	_, k := binary.Uvarint(file[len(colMagic):])
	for off := len(colMagic) + k; off < len(file); {
		n, k := binary.Uvarint(file[off+1:])
		end := off + 1 + k + int(n)
		if file[off] == secGraphRows && file[off+1+k] == gidSocial {
			at = end
		}
		off = end
	}
	if at < 0 {
		tb.Fatal("no social rows section")
	}
	corrupt := bytes.Clone(file)
	corrupt[at] = 0x42
	return []hostileFile{
		{"cut-after-social-rows", fmt.Sprintf("at offset %d: reading section tag: EOF", at), file[:at]},
		{"bad-tag-after-social-rows", fmt.Sprintf("section 0x42 at offset %d: unknown section tag", at), corrupt},
	}
}

// A file that fails after the social graph's rows are complete fails with
// the offset of what follows them, and Load waits for the goroutine that
// builds the graph's in-rows: none outlives it. That goroutine closes its
// channel just before it exits, so the count gets a quarter of the time the
// in-rows take to build to settle — a Load that did not wait would still
// be building them.
func TestLoadFailureAfterSocialRowsStopsItsGoroutine(t *testing.T) {
	for _, w := range []*World{sampleWorld(), bigSyntheticWorld()} {
		g := w.Social
		off, adj := make([]int64, g.NumNodes()+1), make([]int32, 0, g.NumEdges())
		for v := range int32(g.NumNodes()) {
			adj = append(adj, g.Out(v)...)
			off[v+1] = int64(len(adj))
		}
		began := time.Now()
		graph.FromAdjacency(off, adj)
		settle := time.Since(began) / 4

		for _, tc := range afterSocialRows(t, w) {
			start := runtime.NumGoroutine()
			_, err := Load(bytes.NewReader(tc.file))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: Load = %v, want an error with %q", tc.name, err, tc.want)
			}
			for deadline := time.Now().Add(settle); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > start {
				t.Fatalf("%s of %d users: %d goroutines after Load, %d before", tc.name, len(w.Users), n, start)
			}
		}
	}
}

// errDiskFull is what failingWriter fails with.
var errDiskFull = errors.New("disk full")

// failingWriter accepts left bytes and then fails.
type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errDiskFull
	}
	f.left -= len(p)
	return len(p), nil
}

// A writer that fails stops Save with its error wherever in the file it
// fails — in the tables Save encodes itself, in the graph rows or traces
// its encoder goroutines run ahead on, or at the last flush — and Save
// returns only once those goroutines have.
func TestSaveStopsOnWriteError(t *testing.T) {
	w := bigSyntheticWorld()
	size := len(saveColumnar(t, w))
	for _, at := range []int{0, 100, size / 8, size / 3, size / 2, 3 * size / 4, size - 10} {
		start := runtime.NumGoroutine()
		if err := w.Save(&failingWriter{left: at}); !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing at byte %d of %d: Save = %v", at, size, err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > start {
			t.Fatalf("writer failing at byte %d: %d goroutines after Save, %d before", at, n, start)
		}
	}
}

// Load fails a user section holding a value its int32 field cannot hold,
// which it used to wrap (a different world, and a Save→Load→Save that
// changed bytes), or an id other than the user's row.
func TestLoadRejectsHostileColumns(t *testing.T) {
	for _, tc := range hostileColumnFiles(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.file))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want an error with %q", err, tc.want)
			}
		})
	}
}

func TestLoadRejectsHostileTraces(t *testing.T) {
	for _, tc := range hostileTraceFiles(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.file))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want an error with %q", err, tc.want)
			}
		})
	}
}

// Every field of every row type must survive Save→Load. Each field is set
// to a distinct non-zero value by reflection, so a field added without a
// column fails here. A user's id is its row, so the filled user is the row
// its id names.
func TestSchemaCoversEveryField(t *testing.T) {
	next := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		next++ // small, so an id field stays inside the instance table below
		switch v.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(int64(next))
		case reflect.String:
			v.SetString(fmt.Sprint("s", next))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.5)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			fill(v.Index(0))
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		default:
			t.Fatalf("no non-zero value for a %s field", v.Type())
		}
	}
	var inst Instance
	var user User
	var as AS
	for _, row := range []any{&inst, &user, &as} {
		fill(reflect.ValueOf(row).Elem())
	}
	w := &World{Instances: make([]Instance, 64), Users: make([]User, user.ID+1), ASes: []AS{as}}
	for i := range w.Instances {
		w.Instances[i] = inst
	}
	for i := range w.Users {
		w.Users[i] = user
		w.Users[i].ID = int32(i)
	}
	back, err := Load(bytes.NewReader(saveColumnar(t, w)))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct{ saved, loaded any }{
		{inst, back.Instances[63]}, {user, back.Users[user.ID]}, {as, back.ASes[0]},
	} {
		if !reflect.DeepEqual(row.saved, row.loaded) {
			t.Fatalf("Save→Load lost a field:\nsaved  %+v\nloaded %+v", row.saved, row.loaded)
		}
	}
}

// An empty cert-outage day list is not stored, so a world holding one
// re-saves to the same bytes once loaded.
func TestSaveDropsEmptyCertOutageDays(t *testing.T) {
	w := sampleWorld()
	w.CertOutageDays = map[int32][]int{0: {}, 1: {1}}
	b1 := saveColumnar(t, w)
	back, err := Load(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[int32][]int{1: {1}}; !reflect.DeepEqual(back.CertOutageDays, want) {
		t.Fatalf("cert outages = %v, want %v", back.CertOutageDays, want)
	}
	if b2 := saveColumnar(t, back); !bytes.Equal(b1, b2) {
		t.Fatal("Save→Load→Save is not byte-identical")
	}
}

// The decode budget charges a header each row's real size, so a user table
// that fits the budget only at less than unsafe.Sizeof(User{}) a row is
// refused before anything is allocated for it.
func TestLoadBudgetChargesRowSizes(t *testing.T) {
	const nUsers = 1000
	w := &World{Instances: []Instance{{}}, Users: make([]User, nUsers)}
	for i := range w.Users {
		w.Users[i].ID = int32(i)
	}
	b := saveColumnar(t, w)
	defer func(old int64) { colDecodeBudget = old }(colDecodeBudget)
	need := int64(unsafe.Sizeof(Instance{})) + nUsers*int64(unsafe.Sizeof(User{}))
	colDecodeBudget = need
	if _, err := Load(bytes.NewReader(b)); err != nil {
		t.Fatalf("budget of exactly the header's rows: %v", err)
	}
	colDecodeBudget = need - nUsers // one byte a row short
	if _, err := Load(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "over the decode budget") {
		t.Fatalf("budget short by a byte a user row: %v", err)
	}
}

// The streaming contract: the decoder's scratch memory is exactly one
// section — its final capacity is a regular section's (payloadCap), or the
// largest section in the file when that is larger, and never exceeds the
// format's hard section cap, no matter how large the world is.
func TestLoadScratchBoundedByOneSection(t *testing.T) {
	w := bigSyntheticWorld()
	b := saveColumnar(t, w)
	back, stats, err := LoadWithStats(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	requireWorldsEquivalent(t, w, back)
	if stats.Sections < 20 {
		t.Fatalf("big world produced only %d sections; chunking is not happening", stats.Sections)
	}
	if want := max(stats.MaxSection, payloadCap); stats.ScratchCap != want {
		t.Fatalf("scratch capacity %d != %d (largest section %d): decode memory is not one-section bounded",
			stats.ScratchCap, want, stats.MaxSection)
	}
	if stats.MaxSection > maxSectionBytes {
		t.Fatalf("section of %d bytes exceeds the format cap %d", stats.MaxSection, maxSectionBytes)
	}
	if stats.MaxSection > len(b)/4 {
		t.Fatalf("largest section %d is a quarter of the %d-byte file; world is not being chunked", stats.MaxSection, len(b))
	}
}

func TestLoadRejectsBadMagicAndVersion(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("XYZW what"))); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := Load(bytes.NewReader([]byte{'F', 'D', 'W', 'C', 99, 0})); err == nil ||
		!strings.Contains(err.Error(), "unsupported version 99") {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// Every truncation of a valid file must fail with a descriptive error that
// names the format, the version and a byte offset — never a partially
// populated world.
func TestLoadTruncatedInput(t *testing.T) {
	b := saveColumnar(t, sampleWorld())
	for cut := 0; cut < len(b); cut++ {
		w, err := Load(bytes.NewReader(b[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted (world: %v)", cut, len(b), w != nil)
		}
		if cut > len(colMagic) {
			if !strings.Contains(err.Error(), "FDWC v2") || !strings.Contains(err.Error(), "offset") {
				t.Fatalf("truncation at %d: error lacks format/version/offset: %v", cut, err)
			}
		}
	}
}

func TestLoadCorruptSectionLength(t *testing.T) {
	b := saveColumnar(t, sampleWorld())
	// The first section starts right after "FDWC" + version byte: tag at
	// offset 5, its length varint at offset 6. Replace the length with a
	// 5-byte varint far beyond the section cap.
	corrupt := append([]byte{}, b[:6]...)
	corrupt = append(corrupt, 0xff, 0xff, 0xff, 0xff, 0x7f)
	corrupt = append(corrupt, b[7:]...)
	_, err := Load(bytes.NewReader(corrupt))
	if err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversized section length: %v", err)
	}
}

func TestLoadTrailingGarbage(t *testing.T) {
	b := saveColumnar(t, sampleWorld())
	if _, err := Load(bytes.NewReader(append(b, 0xAA))); err == nil ||
		!strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// Flipping any single byte of a valid file must never panic; it either
// fails cleanly or yields a world whose re-encoding is well-formed.
func TestLoadSingleByteCorruptionNeverPanics(t *testing.T) {
	b := saveColumnar(t, sampleWorld())
	for i := range b {
		mut := append([]byte{}, b...)
		mut[i] ^= 0xFF
		w, err := Load(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatalf("flip at %d: loaded world does not re-save: %v", i, err)
		}
	}
}
