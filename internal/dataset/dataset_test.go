package dataset

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func sampleWorld() *World {
	g := graph.FromRows([][]int32{{1}, nil, {0}})
	fed := g.Induce([]int32{0, 0, 1}, 2)
	ts := sim.NewTraceSet(2, 2, SlotsPerDay)
	ts.Traces[0].SetDownRange(10, 20)
	return &World{
		Seed: 7,
		Days: 2,
		Instances: []Instance{
			{ID: 0, Domain: "a.test", Country: "Japan", ASN: 1, Users: 2, Toots: 30,
				Open: true, Categories: []Category{CatTech}, GoneDay: -1},
			{ID: 1, Domain: "b.test", Country: "France", ASN: 2, Users: 1, Toots: 5, GoneDay: 1},
		},
		Users: []User{
			{ID: 0, Instance: 0, Toots: 10},
			{ID: 1, Instance: 0, Toots: 20},
			{ID: 2, Instance: 1, Toots: 5},
		},
		ASes:           []AS{{ASN: 1, Name: "X"}, {ASN: 2, Name: "Y"}},
		Social:         g,
		Federation:     fed,
		Traces:         ts,
		CertOutageDays: map[int32][]int{0: {1}},
	}
}

func TestWorldAccessors(t *testing.T) {
	w := sampleWorld()
	// A World holds no lock — its graphs are immutable CSRs — so copying
	// one is legal. go vet's copylocks check fails this line the day a
	// sync type moves back in.
	_ = *w
	if w.NumSlots() != 2*SlotsPerDay {
		t.Fatalf("slots = %d", w.NumSlots())
	}
	if w.TotalToots() != 35 || w.TotalUsers() != 3 {
		t.Fatalf("totals: %d toots %d users", w.TotalToots(), w.TotalUsers())
	}
	gi := w.UserInstance()
	if len(gi) != 3 || gi[2] != 1 {
		t.Fatalf("user instance = %v", gi)
	}
	iu := w.InstanceUsers()
	if len(iu[0]) != 2 || len(iu[1]) != 1 {
		t.Fatalf("instance users = %v", iu)
	}
	if w.InstanceTootWeights()[0] != 30 || w.InstanceUserWeights()[1] != 1 {
		t.Fatal("weights wrong")
	}
	as := w.ASInstances()
	if len(as[1]) != 1 || as[1][0] != 0 {
		t.Fatalf("AS instances = %v", as)
	}
	if w.ASByNumber(2).Name != "Y" || w.ASByNumber(99) != nil {
		t.Fatal("ASByNumber wrong")
	}
	if !Day(0).Equal(EpochStart) {
		t.Fatal("Day(0) != epoch")
	}
}

func TestWorldSaveLoadRoundTrip(t *testing.T) {
	w := sampleWorld()
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != 7 || back.Days != 2 {
		t.Fatalf("header: %+v", back)
	}
	if len(back.Instances) != 2 || back.Instances[0].Domain != "a.test" {
		t.Fatal("instances lost")
	}
	if back.Instances[0].Categories[0] != CatTech {
		t.Fatal("categories lost")
	}
	if len(back.Users) != 3 || back.Users[1].Toots != 20 {
		t.Fatal("users lost")
	}
	if !reflect.DeepEqual(back.Social, w.Social) {
		t.Fatal("social graph lost")
	}
	if !reflect.DeepEqual(back.Federation, w.Federation) {
		t.Fatal("federation graph lost")
	}
	if !back.Traces.Traces[0].IsDown(15) || back.Traces.Traces[0].IsDown(25) {
		t.Fatal("traces lost")
	}
	if back.CertOutageDays[0][0] != 1 {
		t.Fatal("cert outages lost")
	}
}

func TestWorldFileRoundTrip(t *testing.T) {
	w := sampleWorld()
	path := filepath.Join(t.TempDir(), "world.fedi")
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalToots() != w.TotalToots() {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.fedi")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a world"))); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestCertExpiryDays(t *testing.T) {
	in := Instance{CertIssuedDay: 5}
	days := in.CertExpiryDays(300, 90)
	want := []int{95, 185, 275}
	if len(days) != 3 {
		t.Fatalf("days = %v", days)
	}
	for i := range want {
		if days[i] != want[i] {
			t.Fatalf("days = %v, want %v", days, want)
		}
	}
}
