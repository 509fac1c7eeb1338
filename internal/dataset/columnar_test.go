package dataset

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

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
			JoinDay:  r.IntN(days),
			Toots:    r.IntN(200),
			Boosts:   r.IntN(50),
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
		b, err := ts.MarshalBinary()
		if err != nil {
			t.Fatal(err)
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
// original, and Save→Load→Save must be byte-identical. (The name dates from
// when a gob round trip was a third leg; these two subsumed it.)
func TestColumnarMatchesGobOracle(t *testing.T) {
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
func TestLoadLegacyGobFormat(t *testing.T) {
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := sampleWorld()
			tc.mutate(w)
			_, err := Load(bytes.NewReader(saveColumnar(t, w)))
			if err == nil {
				t.Fatal("inconsistent world accepted")
			}
			for _, part := range []string{tc.want, "FDWC v1", "offset"} {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("error lacks %q: %v", part, err)
				}
			}
		})
	}
}

// The streaming contract: the decoder's scratch memory is exactly one
// section — its final capacity equals the largest section in the file and
// never exceeds the format's hard section cap, no matter how large the
// world is.
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
	if stats.ScratchCap != stats.MaxSection {
		t.Fatalf("scratch capacity %d != largest section %d: decode memory is not one-section bounded",
			stats.ScratchCap, stats.MaxSection)
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
			if !strings.Contains(err.Error(), "FDWC v1") || !strings.Contains(err.Error(), "offset") {
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
