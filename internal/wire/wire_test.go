package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oldFollowerPage is the fmt.Fprintf renderer AppendFollowerPage replaced,
// kept verbatim as the byte-compat oracle.
func oldFollowerPage(name string, actors []Actor, page int, hasNext bool) []byte {
	var w bytes.Buffer
	fmt.Fprintf(&w, "<html><body><h1>Followers of %s</h1><ul>\n", html.EscapeString(name))
	for _, a := range actors {
		fmt.Fprintf(&w, `<li><a class="follower" href="https://%s/users/%s">%s</a></li>`+"\n",
			html.EscapeString(a.Domain), html.EscapeString(a.User), html.EscapeString(a.String()))
	}
	fmt.Fprint(&w, "</ul>\n")
	if hasNext {
		fmt.Fprintf(&w, `<a rel="next" href="/users/%s/followers?page=%d">next</a>`+"\n",
			html.EscapeString(name), page+1)
	}
	fmt.Fprint(&w, "</body></html>")
	return w.Bytes()
}

func TestAppendFollowerPageMatchesOldRenderer(t *testing.T) {
	cases := []struct {
		name    string
		actors  []Actor
		page    int
		hasNext bool
	}{
		{"alice", nil, 1, false},
		{"alice", []Actor{{User: "u7", Domain: "b.test"}}, 1, true},
		{"a<b>&'\"c", []Actor{{User: "x<&>", Domain: "d'\"e.test"}, {User: "y", Domain: "z"}}, 3, true},
		{"café", []Actor{{User: "émile", Domain: "ü.example"}}, 2, false},
	}
	for _, c := range cases {
		want := oldFollowerPage(c.name, c.actors, c.page, c.hasNext)
		got := AppendFollowerPage(nil, c.name, c.actors, c.page, c.hasNext)
		if !bytes.Equal(got, want) {
			t.Fatalf("page for %q diverges:\n got  %s\n want %s", c.name, got, want)
		}
	}
}

func TestScanFollowerPageRoundTrip(t *testing.T) {
	actors := []Actor{
		{User: "u1", Domain: "a.test"},
		{User: "u2", Domain: "b.test"},
	}
	page := AppendFollowerPage(nil, "alice", actors, 1, true)
	var got []Actor
	ScanFollowerPage(page, func(domain, user []byte) {
		got = append(got, Actor{User: string(user), Domain: string(domain)})
	})
	if len(got) != len(actors) {
		t.Fatalf("scanned %d followers, want %d", len(got), len(actors))
	}
	for i := range got {
		if got[i] != actors[i] {
			t.Fatalf("follower %d = %+v, want %+v", i, got[i], actors[i])
		}
	}
	if !FollowerPageHasNext(page) {
		t.Fatal("next link not detected")
	}
	last := AppendFollowerPage(nil, "alice", actors, 2, false)
	if FollowerPageHasNext(last) {
		t.Fatal("phantom next link on last page")
	}
}

// TestDecodeTruncatedInputs: every strict prefix of a valid payload must be
// rejected by every shape decoder — JSON documents are prefix-free — and
// the error must carry the byte offset the scan died at, bounded by the
// prefix length. This is the decode-side half of the chaos transport's
// truncation fault: a torn body that somehow passes the transport must
// still be identified, located, and retried.
func TestDecodeTruncatedInputs(t *testing.T) {
	offsetRe := regexp.MustCompile(`at offset (\d+)`)
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{
			"instance_info",
			[]byte(`{"uri":"a.test","version":"2.4.0","registrations":true,"stats":{"user_count":5,"status_count":17,"domain_count":3}}`),
			func(b []byte) error { var v InstanceInfo; return DecodeInstanceInfo(b, &v) },
		},
		{
			"statuses",
			[]byte(`[{"id":"17","created_at":"2018-05-01T10:00:00.000Z","content":"hi é!","account":{"acct":"a@b.test"},"tags":[{"name":"x"}]}]`),
			func(b []byte) error { _, err := DecodeStatuses(b, nil); return err },
		},
		{
			"scan_instance_info",
			[]byte(`{"uri":"a.test","title":"\u00e9","version":"2.4.0","registrations":true,"stats":{"user_count":5,"status_count":17,"domain_count":3}}`),
			func(b []byte) error { return ScanInstanceInfo(b, new(InstanceView)) },
		},
		{
			"scan_statuses",
			[]byte(`[{"id":"17","created_at":"2018-05-01T10:00:00.000Z","content":"hi é!","account":{"username":"a","acct":"a@b.test"},"reblog":{"uri":"x"},"tags":[{"name":"x"}]}]`),
			func(b []byte) error { return ScanStatuses(b, func(*StatusView) {}) },
		},
		{
			"peers",
			[]byte(`["a.test","b.test"]`),
			func(b []byte) error { _, err := DecodePeers(b, nil); return err },
		},
		{
			"activity",
			[]byte(`{"type":"Create","from":{"user":"a","domain":"x"},"note":{"id":"x/1","author":{"user":"a","domain":"x"},"content":"hi","hashtags":["h"],"created_at":"2018-05-01T10:00:00.25Z"}}`),
			func(b []byte) error { _, err := DecodeActivity(b); return err },
		},
		{
			"follower_page",
			AppendFollowerPage(nil, "alice", []Actor{{User: "u1", Domain: "a.test"}}, 1, false),
			func(b []byte) error { return FollowerPageComplete(b) },
		},
	}
	for _, c := range cases {
		if err := c.decode(c.payload); err != nil {
			t.Fatalf("%s: full payload rejected: %v", c.name, err)
		}
		for cut := 0; cut < len(c.payload); cut++ {
			err := c.decode(c.payload[:cut])
			if err == nil {
				t.Fatalf("%s: %d-byte prefix decoded cleanly", c.name, cut)
			}
			m := offsetRe.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("%s: prefix %d error carries no byte offset: %v", c.name, cut, err)
			}
			off, _ := strconv.Atoi(m[1])
			if off < 0 || off > cut {
				t.Fatalf("%s: prefix %d reports offset %d outside [0,%d]: %v", c.name, cut, off, cut, err)
			}
		}
	}
}

// TestDecodeDepthLimit pins the stdlib's 10000-container nesting cap on
// the skip path.
func TestDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{9999, 10001} {
		doc := `{"unknown":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		var w, j InstanceInfo
		werr := DecodeInstanceInfo([]byte(doc), &w)
		jerr := json.Unmarshal([]byte(doc), &j)
		if (werr == nil) != (jerr == nil) {
			t.Fatalf("depth %d: wire err %v, json err %v", depth, werr, jerr)
		}
	}
}

func TestDecodeActivityValidates(t *testing.T) {
	if _, err := DecodeActivity([]byte(`{"type":"Create"}`)); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := DecodeActivity([]byte(`{`)); err == nil {
		t.Fatal("expected syntax error")
	}
	a, err := DecodeActivity([]byte(`{"type":"Follow","from":{"user":"a","domain":"x"},"target":{"user":"b","domain":"y"}}`))
	if err != nil || a.From.User != "a" || a.Target.Domain != "y" {
		t.Fatalf("decode = %+v, %v", a, err)
	}
}

func TestAppendActivityGolden(t *testing.T) {
	at := time.Date(2018, 5, 1, 10, 0, 0, 250_000_000, time.UTC)
	cases := []*Activity{
		{Type: "Follow", From: Actor{User: "a", Domain: "x"}, Target: Actor{User: "b", Domain: "y"}},
		{Type: "Create", From: Actor{User: "a", Domain: "x"},
			Note: &Note{ID: "x/1", Author: Actor{User: "a", Domain: "x"}, Content: "<hi>", Hashtags: []string{"h"}, CreatedAt: at}},
		{Type: "Announce", From: Actor{User: "a", Domain: "x"},
			Note: &Note{ID: "x/1", Author: Actor{User: "b", Domain: "y"}}},
	}
	for _, a := range cases {
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode diverges:\n wire %s\n json %s", got, want)
		}
	}
}

// The shapes a campaign moves most: a full 40-toot timeline page, the
// instance document a probe fetches, the federation Create envelope, a full
// follower page. What these codecs replaced (encoding/json, the regexp
// scanner) is in DESIGN.md's Settled ablations.

func benchStatusPage() []Status {
	page := make([]Status, 40)
	for i := range page {
		page[i] = Status{
			ID:        fmt.Sprint(4000 - i),
			CreatedAt: "2018-05-01T10:00:00.000Z",
			Content:   fmt.Sprintf("toot %d from u%d", i, i%7),
			Account:   StatusAccount{Username: fmt.Sprintf("u%d", i%7), Acct: fmt.Sprintf("u%d@instance-%02d.fedi.test", i%7, i%5)},
		}
		if i%5 == 0 {
			page[i].Tags = []StatusTag{{Name: "fediverse"}}
		}
		if i%11 == 0 {
			page[i].Reblog = &StatusReblog{URI: fmt.Sprintf("far.test/%d", i)}
		}
	}
	return page
}

var (
	benchInfo = InstanceInfo{
		URI: "instance-0001.fedi.test", Title: "instance-0001.fedi.test", Version: "2.4.0", Registrations: true,
		Stats: InstanceStats{UserCount: 812, StatusCount: 90417, DomainCount: 214, RemoteFollows: 3321},
	}
	benchActor    = Actor{User: "u17", Domain: "instance-0001.fedi.test"}
	benchActivity = Activity{Type: "Create", From: benchActor, Note: &Note{
		ID: "instance-0001.fedi.test/4081", Author: benchActor, Content: "toot 3 from u17",
		Hashtags: []string{"fediverse"}, CreatedAt: time.Date(2017, 7, 10, 0, 0, 0, 0, time.UTC),
	}}
)

func BenchmarkEncode(b *testing.B) {
	page := benchStatusPage()
	var buf []byte
	for _, bc := range []struct {
		name string
		enc  func()
	}{
		{"statuses", func() { buf = AppendStatuses(buf[:0], page) }},
		{"instance", func() { buf = AppendInstanceInfo(buf[:0], &benchInfo) }},
		{"activity", func() { buf, _ = AppendActivity(buf[:0], &benchActivity) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.enc()
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	statuses := AppendStatuses(nil, benchStatusPage())
	instance := AppendInstanceInfo(nil, &benchInfo)
	activity, err := AppendActivity(nil, &benchActivity)
	if err != nil {
		b.Fatal(err)
	}
	var page []Status
	for _, bc := range []struct {
		name string
		dec  func() error
	}{
		{"statuses", func() (err error) { page, err = DecodeStatuses(statuses, page[:0]); return }},
		{"instance", func() error { return DecodeInstanceInfo(instance, new(InstanceInfo)) }},
		{"activity", func() error { return UnmarshalActivity(activity, new(Activity)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := bc.dec(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScan is BenchmarkDecode's statuses and instance through the
// scanners the crawler runs.
func BenchmarkScan(b *testing.B) {
	statuses := AppendStatuses(nil, benchStatusPage())
	instance := AppendInstanceInfo(nil, &benchInfo)
	b.Run("statuses", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			n := 0
			if err := ScanStatuses(statuses, func(*StatusView) { n++ }); err != nil || n != 40 {
				b.Fatal(n, err)
			}
		}
	})
	b.Run("instance", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v InstanceView
			if err := ScanInstanceInfo(instance, &v); err != nil || string(v.Version) != benchInfo.Version {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkScanFollowerPage(b *testing.B) {
	actors := make([]Actor, 40)
	for i := range actors {
		actors[i] = Actor{User: fmt.Sprintf("f%d", i), Domain: fmt.Sprintf("far-%02d.test", i%7)}
	}
	page := AppendFollowerPage(nil, "alice", actors, 1, true)
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		ScanFollowerPage(page, func(domain, user []byte) { n++ })
		if n != 40 || !FollowerPageHasNext(page) {
			b.Fatal("scan lost followers")
		}
	}
}
