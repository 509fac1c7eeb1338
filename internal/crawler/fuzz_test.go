package crawler

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/instance"
	"repro/internal/wire"
)

// Fuzz targets for the crawler's parsers: the follower-page HTML scraper
// and the status/instance JSON decoders. The committed corpora under
// testdata/fuzz/ run as regression seeds on every plain `go test`; run
// `go test -fuzz FuzzX ./internal/crawler` to explore further.

// FuzzFollowerPage pins the no-panic and well-formedness invariants of the
// HTML follower-page parser on arbitrary bytes.
func FuzzFollowerPage(f *testing.F) {
	f.Add([]byte(`<html><body><ul>
<li><a class="follower" href="https://b.test/users/u7">u7@b.test</a></li>
</ul><a rel="next" href="/users/alice/followers?page=2">next</a></body></html>`))
	f.Add([]byte(`<a class="follower" href="http://x.test/users/a">`))
	f.Add([]byte("<html>no followers here</html>"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, body []byte) {
		followers, hasNext := parseFollowerPage(body)
		for _, f := range followers {
			if _, _, ok := dataset.SplitAcct(f); !ok {
				t.Fatalf("malformed follower acct %q", f)
			}
		}
		// Parsing is pure: a second pass sees exactly the same page.
		followers2, hasNext2 := parseFollowerPage(body)
		if hasNext != hasNext2 || !reflect.DeepEqual(followers, followers2) {
			t.Fatal("parser is not deterministic")
		}
	})
}

// parseFollowerPage reads one follower page the way a scrape does and
// returns the follower names it collected.
func parseFollowerPage(body []byte) (followers []string, hasNext bool) {
	var a nameList
	hasNext = a.appendPage(body)
	for k := range a.ends {
		followers = append(followers, string(a.name(k)))
	}
	return followers, hasNext
}

var safeName = regexp.MustCompile(`^[a-zA-Z0-9.-]{1,40}$`)

// FuzzFollowerPageRoundTrip drives fuzzed follower populations through the
// real renderer (instance.Server's HTML follower pages) and back through
// the real parser, asserting the scraped names reproduce the follower list
// exactly — the §3 graph-crawl loop in one invariant.
func FuzzFollowerPageRoundTrip(f *testing.F) {
	f.Add("alice", "remote", uint8(3))
	f.Add("u7", "b", uint8(90)) // spans three pages
	f.Add("a.b-c", "x.y", uint8(0))
	f.Fuzz(func(t *testing.T, user, domain string, n uint8) {
		if !safeName.MatchString(user) || !safeName.MatchString(domain) {
			t.Skip("names outside the account charset")
		}
		srv := instance.NewServer(instance.Config{Domain: "home.test"}, nil)
		if _, err := srv.CreateAccount(user, false, true, time.Time{}); err != nil {
			t.Skip("unusable account name")
		}
		want := make([]string, 0, int(n))
		for i := 0; i < int(n); i++ {
			follower := federation.Actor{User: fmt.Sprintf("f%d", i), Domain: fmt.Sprintf("%s%d.test", domain, i)}
			err := srv.Receive(context.Background(), &federation.Activity{
				Type:   federation.TypeFollow,
				From:   follower,
				Target: federation.Actor{User: user, Domain: "home.test"},
			})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, follower.String())
		}
		var got []string
		for page := 1; ; page++ {
			req := httptest.NewRequest("GET", fmt.Sprintf("/users/%s/followers?page=%d", user, page), nil)
			req.Host = "home.test"
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("page %d: status %d", page, rec.Code)
			}
			followers, hasNext := parseFollowerPage(rec.Body.Bytes())
			got = append(got, followers...)
			if !hasNext {
				break
			}
		}
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip lost followers: got %d, want %d", len(got), len(want))
		}
	})
}

// scanToots reads one page the way the harvest does: the records ahead of
// the first status that is not a toot, that status's error, and the page's
// own.
func scanToots(data []byte) (toots []refToot, statusErr, pageErr error) {
	h := harvestPool.Get().(*harvest)
	defer h.release()
	pageErr = wire.ScanStatuses(data, func(v *wire.StatusView) {
		if statusErr == nil {
			statusErr = h.add(v)
		}
	})
	for _, t := range h.page {
		toots = append(toots, refToot{ID: t.id, Acct: h.authors[t.author]})
	}
	return toots, statusErr, pageErr
}

// FuzzDecodeStatuses pins the status-page reader: it refuses the bytes
// encoding/json refuses, and on any other page yields the records — and the
// first bad status's error — that converting json's []wire.Status one by
// one yields. A record is what a harvest keeps of a toot: its id and
// author; the fields it drops are type-checked all the same.
func FuzzDecodeStatuses(f *testing.F) {
	f.Add([]byte(`[{"id":"17","created_at":"2018-05-01T10:00:00.000Z","content":"hi","account":{"acct":"a@b.test"},"tags":[{"name":"x"}]}]`))
	f.Add([]byte(`[{"id":"9","created_at":"2018-05-01T10:00:00Z","account":{"acct":"u@v"},"reblog":{"uri":"w"}}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":"007","created_at":"bogus"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var page []wire.Status
		jerr := json.Unmarshal(data, &page)
		got, gotErr, pageErr := scanToots(data)
		if (pageErr != nil) != (jerr != nil) {
			t.Fatalf("page verdicts differ: scan %v, json %v", pageErr, jerr)
		}
		if jerr != nil {
			return
		}
		var want []refToot
		var wantErr error
		for _, ws := range page {
			var rec refToot
			if rec, wantErr = refDecodeStatus(ws); wantErr != nil {
				break
			}
			want = append(want, rec)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("errors differ: scan %v, ref %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("records differ:\n got  %+v\n want %+v", got, want)
		}
	})
}

// FuzzInstanceInfo pins the probe's reader the same way: encoding/json's
// verdict on the document, and the fields a Sample keeps equal to json's.
func FuzzInstanceInfo(f *testing.F) {
	f.Add([]byte(`{"uri":"a.test","version":"2.4.0","registrations":true,"stats":{"user_count":5,"status_count":17,"domain_count":3}}`))
	f.Add([]byte(`{"stats":{"user_count":-1}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got wire.InstanceView
		var want wire.InstanceInfo
		serr, jerr := wire.ScanInstanceInfo(data, &got), json.Unmarshal(data, &want)
		if (serr != nil) != (jerr != nil) {
			t.Fatalf("verdicts differ: scan %v, json %v", serr, jerr)
		}
		if jerr == nil && (string(got.Version) != want.Version || got.Registrations != want.Registrations || got.Stats != want.Stats) {
			t.Fatalf("fields differ:\n scan %q %+v\n json %+v", got.Version, got, want)
		}
	})
}

// followerLink and nextLink are the specification of a follower page: the
// anchor tags Mastodon renders, anchored on the follower class so navigation
// links are not mistaken for followers, and the rel=next pagination anchor.
// The live path runs wire's hand-rolled scanner.
var (
	followerLink = regexp.MustCompile(`<a class="follower" href="https?://([^/"]+)/users/([^/"]+)"`)
	nextLink     = regexp.MustCompile(`<a rel="next" href="[^"]*page=(\d+)"`)
)

// refParseFollowerPage is the original regex-based parser.
func refParseFollowerPage(body []byte) (followers []string, hasNext bool) {
	for _, m := range followerLink.FindAllSubmatch(body, -1) {
		followers = append(followers, string(m[2])+"@"+string(m[1]))
	}
	return followers, nextLink.Find(body) != nil
}

// FuzzFollowerPageScan holds the wire follower-page scanner against the
// original regexes on arbitrary bytes: same followers in the same order, same
// next-page verdict.
func FuzzFollowerPageScan(f *testing.F) {
	f.Add([]byte(`<html><body><ul>
<li><a class="follower" href="https://b.test/users/u7">u7@b.test</a></li>
</ul><a rel="next" href="/users/alice/followers?page=2">next</a></body></html>`))
	f.Add([]byte(`<a class="follower" href="http://x.test/users/a"`))
	f.Add([]byte(`<a class="follower" href="https:///users/a" <a class="follower" href="http://y/users/b"`))
	f.Add([]byte(`<a rel="next" href="page=page=3"`))
	f.Add([]byte(`<a rel="next" href="?page=12x"`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotNext := parseFollowerPage(body)
		want, wantNext := refParseFollowerPage(body)
		if gotNext != wantNext {
			t.Fatalf("hasNext: scanner %v, regex %v", gotNext, wantNext)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("followers diverge:\n scanner %v\n regex   %v", got, want)
		}
	})
}
