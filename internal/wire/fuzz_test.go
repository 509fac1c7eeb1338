package wire

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Differential fuzz targets: every wire codec is held against
// encoding/json in both directions. Decoders must agree with
// json.Unmarshal on success/failure and, when both succeed, on the decoded
// value; encoders must then reproduce json.Marshal byte for byte. The
// committed corpora under testdata/fuzz/ are seeded from the crawler's
// parser corpora and run as regression seeds on every plain `go test`.

func agree(t *testing.T, werr, jerr error) bool {
	t.Helper()
	if (werr == nil) != (jerr == nil) {
		t.Fatalf("error disagreement:\n wire %v\n json %v", werr, jerr)
	}
	return werr == nil
}

// FuzzInstanceInfoCodec pins the instance-info decoder and encoder against
// the stdlib.
func FuzzInstanceInfoCodec(f *testing.F) {
	f.Add([]byte(`{"uri":"a.test","version":"2.4.0","registrations":true,"stats":{"user_count":5,"status_count":17,"domain_count":3}}`))
	f.Add([]byte(`{"stats":{"user_count":-1}}`))
	f.Add([]byte(`{"URI":"case.fold","Stats":{"User_Count":7}}`))
	f.Add([]byte(`{"uri":"dup","uri":"wins"}`))
	f.Add([]byte(`{"uri":"A😀\ud800","title":"<&>"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w, j InstanceInfo
		if !agree(t, DecodeInstanceInfo(data, &w), json.Unmarshal(data, &j)) {
			return
		}
		if !reflect.DeepEqual(w, j) {
			t.Fatalf("decode diverges:\n wire %+v\n json %+v", w, j)
		}
		want, err := json.Marshal(&j)
		if err != nil {
			t.Fatalf("json re-encode: %v", err)
		}
		if got := AppendInstanceInfo(nil, &w); string(got) != string(want) {
			t.Fatalf("encode diverges:\n wire %s\n json %s", got, want)
		}
	})
}

// FuzzStatusesCodec pins the status-page decoder and encoder.
func FuzzStatusesCodec(f *testing.F) {
	f.Add([]byte(`[{"id":"17","created_at":"2018-05-01T10:00:00.000Z","content":"hi","account":{"acct":"a@b.test"},"tags":[{"name":"x"}]}]`))
	f.Add([]byte(`[{"id":"9","created_at":"2018-05-01T10:00:00Z","account":{"acct":"u@v"},"reblog":{"uri":"w"}}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[null,{}]`))
	f.Add([]byte(`[{"tags":[{"name":"a"}],"tags":[{}]}]`))
	f.Add([]byte(`[{"reblog":{"uri":"a"},"reblog":null}]`))
	f.Add([]byte(`[{"id":"007","created_at":"bogus"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var j []Status
		w, werr := DecodeStatuses(data, nil)
		if !agree(t, werr, json.Unmarshal(data, &j)) {
			return
		}
		if !reflect.DeepEqual(w, j) {
			t.Fatalf("decode diverges:\n wire %+v\n json %+v", w, j)
		}
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("json re-encode: %v", err)
		}
		if got := AppendStatuses(nil, w); string(got) != string(want) {
			t.Fatalf("encode diverges:\n wire %s\n json %s", got, want)
		}
	})
}

// addCorpus seeds f with the inputs committed for other fuzz targets that
// take one []byte, so a scanner starts from everything its reference
// decoder was ever fuzzed into.
func addCorpus(f *testing.F, dirs ...string) {
	f.Helper()
	for _, dir := range dirs {
		names, _ := filepath.Glob(filepath.Join(dir, "*"))
		if len(names) == 0 {
			f.Fatalf("no corpus under %s", dir)
		}
		for _, name := range names {
			raw, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
			lit, ok2 := strings.CutSuffix(lit, ")")
			data, err := strconv.Unquote(lit)
			if !ok || !ok2 || err != nil {
				f.Fatalf("%s is not a one-[]byte corpus file", name)
			}
			f.Add([]byte(data))
		}
	}
}

// sameError holds a scanner's verdict to its reference decoder's: both nil,
// or the same message (offset included). It reports whether both accepted.
func sameError(t *testing.T, scan, ref error) bool {
	t.Helper()
	if (scan == nil) != (ref == nil) || scan != nil && scan.Error() != ref.Error() {
		t.Fatalf("error disagreement:\n scan %v\n ref  %v", scan, ref)
	}
	return scan == nil
}

// viewsOf runs ScanStatuses and copies what each callback saw into the
// Status it stands for — inside the callback: a view holds until it
// returns, not longer.
func viewsOf(data []byte) ([]Status, error) {
	page := []Status{}
	err := ScanStatuses(data, func(v *StatusView) {
		s := Status{ID: string(v.ID), CreatedAt: string(v.CreatedAt), Content: string(v.Content)}
		s.Account.Acct = string(v.Acct)
		if v.Boost {
			s.Reblog = &StatusReblog{}
		}
		if v.Tags != nil && len(v.Tags) == 0 {
			s.ID = "an empty Tags must be nil"
		}
		for _, name := range v.Tags {
			s.Tags = append(s.Tags, StatusTag{Name: name})
		}
		page = append(page, s)
	})
	return page, err
}

// FuzzScanStatuses holds the page scanner to the materialising decoder:
// the same error, or the same statuses in the fields a view has — the
// fields it drops (username, reblog.uri) are blanked on the reference side,
// which is also how their type errors are seen to survive.
func FuzzScanStatuses(f *testing.F) {
	addCorpus(f, "testdata/fuzz/FuzzStatusesCodec", "../crawler/testdata/fuzz/FuzzDecodeStatuses")
	f.Add([]byte(`[{"id":"1","account":{"username":7}}]`))
	f.Add([]byte(`[{"id":"1","reblog":{"uri":[]}},{"id":"2"}]`))
	f.Add([]byte(`[{"id":"\u0031","created_at":"\u0032","content":"\u00e9","account":{"acct":"a\u0040b"}}]`))
	f.Add([]byte(`[{"id":"1","id":"\u0032","account":{"acct":"é"},"account":{"username":"x"},"ACCOUNT":null}]`))
	f.Add([]byte(`[{"tags":[{"name":"a"},{"name":"b"}],"tags":[{"name":null}],"tags":[{},{}]}]`))
	f.Add([]byte(`[{"tags":[{"name":"a"}],"tags":null},{"tags":[]},{"reblog":{},"reblog":null},null]`))
	f.Add([]byte(`[{"tags":[{"name":"a"}],"tags":[]}]`))
	f.Add([]byte(`[{"id":"1","created_at":"2","content":"3","account":{"acct":"4"},"reblog":{},"tags":[{"name":"5"}]},{},null]`))
	f.Add([]byte(`[{"account":{"username":true}}]`))
	f.Add([]byte(`[{"reblog":{"uri":false}}]`))
	f.Add([]byte(`[{"id":"1"},{"id":"2"}`))
	f.Add([]byte(`[{"id":"1"}]]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, serr := viewsOf(data)
		want, rerr := DecodeStatuses(data, nil)
		if !sameError(t, serr, rerr) {
			return
		}
		if want == nil {
			want = []Status{} // a null page: no statuses, as the scanner reports it
		}
		for i := range want {
			want[i].Account.Username = ""
			if want[i].Reblog != nil {
				want[i].Reblog.URI = ""
			}
			if len(want[i].Tags) == 0 {
				want[i].Tags = nil
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan diverges:\n scan %+v\n ref  %+v", got, want)
		}
	})
}

// FuzzScanInstanceInfo holds the probe's scanner to the materialising
// decoder: the same error, or the same version, flag and counters.
func FuzzScanInstanceInfo(f *testing.F) {
	addCorpus(f, "testdata/fuzz/FuzzInstanceInfoCodec", "../crawler/testdata/fuzz/FuzzInstanceInfo")
	f.Add([]byte(`{"title":7}`))
	f.Add([]byte(`{"uri":{},"version":"1"}`))
	f.Add([]byte(`{"uri":true}`))
	f.Add([]byte(`{"version":"2.4.0","VERSION":"\u0033.0 \ud83d\ude00","version":null,"uri":null}`))
	f.Add([]byte(`{"stats":{"user_count":1},"stats":{"status_count":2},"registrations":true,"registrations":null}`))
	f.Add([]byte(`{"version":"1"} x`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got InstanceView
		var want InstanceInfo
		if !sameError(t, ScanInstanceInfo(data, &got), DecodeInstanceInfo(data, &want)) {
			return
		}
		if string(got.Version) != want.Version || got.Registrations != want.Registrations || got.Stats != want.Stats {
			t.Fatalf("scan diverges:\n scan %q %+v\n ref  %+v", got.Version, got, want)
		}
	})
}

// FuzzScanString holds scanString to refScanString, the byte loop it
// replaced, on the inside of a string literal that opens at offset 1: the
// same raw bytes, simple flag, offset after the literal and error text.
func FuzzScanString(f *testing.F) {
	// Every byte value at each offset that starts, ends or straddles one of
	// the words of a 24-byte string.
	for k := 0; k < 18; k++ {
		for c := 0; c < 256; c++ {
			s := []byte(strings.Repeat("a", 24) + `"`)
			s[k] = byte(c)
			f.Add(s)
		}
	}
	// A closing quote at 7, 8 and 9 bytes: the last byte before a word, its
	// first one, and one into it — with and without bytes after it.
	for _, n := range []int{7, 8, 9} {
		f.Add([]byte(strings.Repeat("b", n) + `"`))
		f.Add([]byte(strings.Repeat("b", n) + `","next":"é"}`))
	}
	for n := 0; n <= 16; n++ {
		f.Add([]byte(strings.Repeat("c", n))) // unterminated
	}
	// \u escapes, whole, bad and cut short, across every word boundary.
	for k := 0; k < 10; k++ {
		for _, esc := range []string{"\\u00e9", "\\ud83d\\ude00", "\\u00g9", "\\u00", "\\", "é"} {
			f.Add([]byte(strings.Repeat("d", k) + esc + strings.Repeat("e", 9) + `"`))
			f.Add([]byte(strings.Repeat("d", k) + esc))
		}
	}
	f.Add([]byte("né\x01\"")) // a control byte after simple turned false
	f.Fuzz(func(t *testing.T, inside []byte) {
		data := append([]byte(`["`), inside...)
		got, want := &decoder{data: data, off: 1}, &decoder{data: data, off: 1}
		graw, gsimple, gerr := got.scanString()
		wraw, wsimple, werr := want.refScanString()
		if string(graw) != string(wraw) || (graw == nil) != (wraw == nil) || gsimple != wsimple ||
			got.off != want.off || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%q: scanString %q %v off %d %v, byte loop %q %v off %d %v",
				data, graw, gsimple, got.off, gerr, wraw, wsimple, want.off, werr)
		}
	})
}

// TestFieldIsMatchesEqualFold holds fieldIs to encoding/json's rule on every
// field name against keys that differ from it in case, in length, by the
// two non-ASCII runes that fold to ASCII letters, and by the bytes that
// agree with a letter once 0x20 is set.
func TestFieldIsMatchesEqualFold(t *testing.T) {
	// Every JSON name the scanners, the reference decoders and
	// UnmarshalActivity match a key against.
	fieldNames := []string{
		"id", "created_at", "content", "account", "username", "acct", "reblog", "uri", "tags", "name",
		"title", "version", "registrations", "stats", "user_count", "status_count", "domain_count", "remote_follows",
		"type", "from", "target", "note", "user", "domain", "author", "hashtags",
	}
	keys := []string{"", "x", "ID", "Id", "iD", "K", "ſ", "\xff", "é"}
	for _, n := range fieldNames {
		keys = append(keys, n, strings.ToUpper(n), n[:len(n)-1], n+"s", "k"+n, n[1:], strings.ToUpper(n[:1])+n[1:])
		keys = append(keys, strings.ReplaceAll(n, "k", "K"), strings.ReplaceAll(n, "s", "ſ"),
			strings.ReplaceAll(strings.ToUpper(n), "S", "ſ"))
		for i := 0; i < len(n); i++ {
			for _, c := range []byte{n[i] ^ 0x20, n[i] | 0x80, n[i] + 1, 0x7f, '@', '[', '`', '{', 0} {
				keys = append(keys, n[:i]+string([]byte{c})+n[i+1:])
			}
			keys = append(keys, n[:i]+"K"+n[i+1:], n[:i]+"ſ"+n[i+1:], n[:i]+n[i+1:])
		}
	}
	matched := 0
	for _, n := range fieldNames {
		for _, k := range keys {
			want := k == n || strings.EqualFold(k, n)
			if got := fieldIs([]byte(k), n); got != want {
				t.Errorf("fieldIs(%q, %q) = %v, want %v", k, n, got, want)
			}
			if want && k != n {
				matched++
			}
		}
	}
	// The keys must fold onto names through both branches, or the table
	// tests only refusals.
	if matched < 3*len(fieldNames) {
		t.Fatalf("only %d folded matches", matched)
	}
}

// FuzzPeersCodec pins the peers-list decoder and encoder.
func FuzzPeersCodec(f *testing.F) {
	f.Add([]byte(`["a.test","b.test"]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[null,"x"]`))
	f.Add([]byte(`["𝄞","\udd1e","<&>"]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var j []string
		w, werr := DecodePeers(data, nil)
		if !agree(t, werr, json.Unmarshal(data, &j)) {
			return
		}
		if !reflect.DeepEqual(w, j) {
			t.Fatalf("decode diverges:\n wire %#v\n json %#v", w, j)
		}
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("json re-encode: %v", err)
		}
		if got := AppendPeers(nil, w); string(got) != string(want) {
			t.Fatalf("encode diverges:\n wire %s\n json %s", got, want)
		}
	})
}

// FuzzActivityCodec pins the federation-envelope decoder and encoder,
// including the time.Time passthrough to the stdlib's strict RFC 3339
// unmarshaler.
func FuzzActivityCodec(f *testing.F) {
	f.Add([]byte(`{"type":"Follow","from":{"user":"a","domain":"x"},"target":{"user":"b","domain":"y"}}`))
	f.Add([]byte(`{"type":"Create","from":{"user":"a","domain":"x"},"note":{"id":"x/1","author":{"user":"a","domain":"x"},"content":"hi","hashtags":["h"],"created_at":"2018-05-01T10:00:00.25Z"}}`))
	f.Add([]byte(`{"note":{"created_at":null}}`))
	f.Add([]byte(`{"note":{"created_at":"not a time"}}`))
	f.Add([]byte(`{"note":{"hashtags":["a"],"hashtags":[null]}}`))
	f.Add([]byte(`{"Type":"Announce","NOTE":{"ID":"x"}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w, j Activity
		if !agree(t, UnmarshalActivity(data, &w), json.Unmarshal(data, &j)) {
			return
		}
		if !reflect.DeepEqual(w, j) {
			t.Fatalf("decode diverges:\n wire %+v\n json %+v", w, j)
		}
		want, jerr := json.Marshal(&j)
		got, werr := AppendActivity(nil, &w)
		if !agree(t, werr, jerr) {
			return
		}
		if string(got) != string(want) {
			t.Fatalf("encode diverges:\n wire %s\n json %s", got, want)
		}
	})
}

// FuzzJSONString pins the string encoder against the stdlib on arbitrary
// (including invalid-UTF-8) input.
func FuzzJSONString(f *testing.F) {
	f.Add("plain")
	f.Add(`quotes " and \ back`)
	f.Add("<script>&amp;</script>")
	f.Add("control \x00\x1f\x7f tab\t nl\n")
	f.Add("line sep   para  ")
	f.Add("bad utf8 \xff\xfe and ok é")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip("stdlib refused the string")
		}
		if got := AppendJSONString(nil, s); string(got) != string(want) {
			t.Fatalf("encode diverges:\n wire %q\n json %q", got, want)
		}
		if got := AppendJSONStringBytes(nil, []byte(s)); string(got) != string(want) {
			t.Fatalf("bytes encoder diverges:\n wire %q\n json %q", got, want)
		}
	})
}

// FuzzTimeAppend pins the hand-rolled time encoder (used inside
// AppendActivity) against time.Time.MarshalJSON, including its strict
// year/offset error cases.
func FuzzTimeAppend(f *testing.F) {
	f.Add(int64(1000), int64(0), 0)
	f.Add(int64(-62135596800), int64(0), 0)   // year 1
	f.Add(int64(253402300799), int64(5), 0)   // year 9999
	f.Add(int64(253402300800), int64(0), 0)   // year 10000: must error
	f.Add(int64(-62135596801), int64(0), 0)   // year 0 boundary
	f.Add(int64(1000), int64(123456789), 330) // +05:30
	f.Add(int64(1000), int64(0), -1440)       // -24:00: must error
	f.Fuzz(func(t *testing.T, sec, nsec int64, offsetMin int) {
		if offsetMin < -10000 || offsetMin > 10000 {
			t.Skip("silly zone")
		}
		tm := time.Unix(sec, nsec).In(time.FixedZone("", offsetMin*60))
		want, jerr := tm.MarshalJSON()
		got, werr := appendTimeJSON(nil, tm)
		if (werr == nil) != (jerr == nil) {
			t.Fatalf("error disagreement: wire %v, json %v", werr, jerr)
		}
		if jerr == nil && string(got) != string(want) {
			t.Fatalf("encode diverges:\n wire %s\n json %s", got, want)
		}
	})
}
