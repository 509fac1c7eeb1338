package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// The loops the campaign's request path and bookkeeping used to run, kept
// as the specifications their replacements are held against: the probe log
// that did three string-map operations a sample, the request built by
// parsing the URL it had just concatenated, the timestamp read by
// time.Parse's layout interpreter, the harvest that materialised every page
// as a []wire.Status before converting it.

// refProbeLog is ProbeLog as it was: one map from domain to samples.
type refProbeLog struct {
	byInst  map[string][]Sample
	domains []string
}

func (p *refProbeLog) Add(samples []Sample) {
	for _, s := range samples {
		if _, ok := p.byInst[s.Domain]; !ok {
			p.domains = append(p.domains, s.Domain)
		}
		p.byInst[s.Domain] = append(p.byInst[s.Domain], s)
	}
}

func (p *refProbeLog) DowntimeFraction(domain string) float64 {
	ss := p.byInst[domain]
	if len(ss) == 0 {
		return 0
	}
	down := 0
	for _, s := range ss {
		if !s.Online {
			down++
		}
	}
	return float64(down) / float64(len(ss))
}

func (p *refProbeLog) ToTraceSet(slotsPerDay int) (*sim.TraceSet, []string) {
	rounds := 0
	for _, ss := range p.byInst {
		if len(ss) > rounds {
			rounds = len(ss)
		}
	}
	ts := &sim.TraceSet{SlotsPerDay: slotsPerDay, Traces: make([]*sim.Trace, len(p.domains))}
	for i, d := range p.domains {
		tr := sim.NewTrace(rounds)
		ss := p.byInst[d]
		for slot := 0; slot < rounds; slot++ {
			if slot >= len(ss) || !ss[slot].Online {
				tr.SetDown(slot)
			}
		}
		ts.Traces[i] = tr
	}
	return ts, append([]string(nil), p.domains...)
}

// TestProbeLogMatchesReference feeds both logs campaigns whose rounds do
// not arrive the way a Monitor's do — the case the positional filing must
// fall back on its index for — and compares every answer after every round.
func TestProbeLogMatchesReference(t *testing.T) {
	at := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	round := func(r int, spec string) []Sample {
		// "a+ b- c+": domain, then + for online and - for offline.
		var out []Sample
		for _, f := range strings.Fields(spec) {
			out = append(out, Sample{
				Domain: f[:len(f)-1], Online: f[len(f)-1] == '+',
				At: at.Add(time.Duration(r) * 5 * time.Minute), Users: r, Toots: int64(len(out)),
			})
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		rounds []string
	}{
		{"in order", []string{"a+ b- c+", "a- b- c+", "a+ b+ c+"}},
		{"permuted", []string{"a+ b- c+", "c- a+ b+", "b- c- a-", "a+ b+ c+"}},
		{"a domain joins mid-campaign", []string{"a+ b+", "a- b+ c+", "c+ a+ b-", "a+ b+ c- d+"}},
		{"a domain joins at the front", []string{"a+ b+", "z+ a- b+", "z- a+ b+"}},
		{"repeats within a round", []string{"a+ a- b+", "a+ b- b-", "b+ b+ b+ a-"}},
		{"first round repeats its first domain", []string{"a+ a-", "a+ b+"}},
		{"shorter than the population", []string{"a+ b+ c+ d+", "a-", "a+ b-", "", "d- c-"}},
		{"the empty domain is a domain", []string{"+ a+", "a- -", "+"}},
		{"nothing", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := NewProbeLog(), &refProbeLog{byInst: map[string][]Sample{}}
			for r, spec := range append([]string{""}, tc.rounds...) {
				ss := round(r, spec)
				got.Add(ss)
				want.Add(ss)
				if g := got.Domains(); !reflect.DeepEqual(g, append([]string(nil), want.domains...)) {
					t.Fatalf("after round %d: Domains() = %q, want %q", r, g, want.domains)
				}
				for _, d := range append(want.domains, "never-probed") {
					if g, w := got.Samples(d), append([]Sample(nil), want.byInst[d]...); !reflect.DeepEqual(g, w) {
						t.Fatalf("after round %d: Samples(%q) = %v, want %v", r, d, g, w)
					}
					if g, w := got.DowntimeFraction(d), want.DowntimeFraction(d); g != w {
						t.Fatalf("after round %d: DowntimeFraction(%q) = %v, want %v", r, d, g, w)
					}
					g, gok := got.LastOnline(d)
					if w, wok := refLastOnline(want.byInst[d]); g != w || gok != wok {
						t.Fatalf("after round %d: LastOnline(%q) = %v %v, want %v %v", r, d, g, gok, w, wok)
					}
				}
				gts, gd := got.ToTraceSet(288)
				wts, wd := want.ToTraceSet(288)
				if !reflect.DeepEqual(gd, wd) || !reflect.DeepEqual(gts, wts) {
					t.Fatalf("after round %d: ToTraceSet differs: domains %q vs %q", r, gd, wd)
				}
			}
		})
	}
}

// TestProbeLogCopiesOut: what the log hands out is the caller's to change.
// (What it is handed is the log's: Add keeps the round it is given.)
func TestProbeLogCopiesOut(t *testing.T) {
	log := NewProbeLog()
	log.Add([]Sample{{Domain: "a", Online: true, Users: 3}, {Domain: "b"}})
	log.Samples("a")[0].Online = false
	log.Domains()[0] = "x"
	last, _ := log.LastOnline("a")
	last.Users = 4
	if ss := log.Samples("a"); len(ss) != 1 || !ss[0].Online || ss[0].Users != 3 || log.Domains()[0] != "a" {
		t.Fatalf("the log shares memory with its callers: %v %v", ss, log.Domains())
	}
}

// refLastOnline is how Rebuild found a domain's metadata sample: every
// sample in order, the last online one standing.
func refLastOnline(samples []Sample) (last Sample, ok bool) {
	for _, s := range samples {
		if s.Online {
			last, ok = s, true
		}
	}
	return last, ok
}

// sameRequest holds newGet to http.NewRequestWithContext on one base and
// path: the same error, or requests equal in every field a transport reads.
func sameRequest(t testing.TB, base, path string) {
	t.Helper()
	ctx := context.WithValue(context.Background(), deadlineKey{}, time.Second)
	want, wantErr := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	got, gotErr := newGet(ctx, base, path)
	if wantErr != nil || gotErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q + %q: error %v, want %v", base, path, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got.URL, want.URL) {
		t.Fatalf("%q + %q: URL %#v, want %#v", base, path, got.URL, want.URL)
	}
	if got.Host != want.Host || got.Method != want.Method || !reflect.DeepEqual(got.Header, want.Header) ||
		got.Proto != want.Proto || got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor {
		t.Fatalf("%q + %q: request %+v, want %+v", base, path, got, want)
	}
	if got.Context() != ctx || got.Body != nil || got.GetBody != nil || got.ContentLength != 0 {
		t.Fatalf("%q + %q: request %+v carries a body or another context", base, path, got)
	}
	if got.URL.String() != want.URL.String() || got.URL.RequestURI() != want.URL.RequestURI() {
		t.Fatalf("%q + %q: URL renders as %q, want %q", base, path, got.URL, want.URL)
	}
}

var requestBases = []string{
	"http://mastodon.social", "http://a", "http://A-b.C0", "http://127.0.0.1:8089", "http://x.test:80",
	"http://localhost:0", "http://d1.x.", "http://-", "http://1", "http://a..b",
	// not plain: the parser has work to do, or refuses
	"http://", "http://x.test:", "http://x.test:80:90", "http://x.test:http", "http://:80", "http://x.test/",
	"http://x.test/prefix", "https://x.test", "HTTP://x.test", "http:/x.test", "http:x.test", "x.test", "",
	"http://user@x.test", "http://user:pw@x.test", "http://[::1]", "http://[::1]:8080", "http://x%41.test",
	"http://x.test%", "http://x_y.test", "http://ä.test", "http://x.test?", "http://x.test#", "http://x test",
	"http://x.test\n", "http://x.test\x7f", "ftp://x.test", "://x.test", "http://x.test:8a",
}

var requestPaths = []string{
	"/api/v1/instance", "/", "/users/u17/followers?page=3", "/users/A.b-c_d~e/followers?page=1",
	"/api/v1/timelines/public?local=true&limit=40", "/api/v1/timelines/public?local=true&limit=40&since_id=5&max_id=123456789",
	"//double", "/a//b/", "/.", "/../x", "/a?b", "/a?=", "/a?&&", "/a?b=c=d",
	// not plain
	"", "relative", "?q=1", "/a?", "/a??", "/a?b?", "/a?b?c", "/a#", "/a#frag", "/a?b#frag", "/a%41", "/a%2fb", "/a%zz",
	"/a%", "/a?b=%41", "/a?b=%zz", "/a b", "/a?b c", "/a\tb", "/a\x00", "/a?\x7f", "/ä", "/a?ä=1", "/a;b", "/a?b;c",
	"/a:b", "/:a", "/a@b", "/a?b@c", "/a+b", "/a?b+c", "/a,b", "/a$b", "/a!b", "/a*b", "/a'b", "/a(b)", "/a[b]",
	"/a?b[]=1", "/a{b}", "/a|b", "/a\\b", "/a^b", "/a`b", "/a\"b", "/a<b>", "/a?b/c", "/a?b:c", "/*", "*",
}

// plainBase reports whether newGet builds base+path without parsing it.
func plainBase(base, path string) bool {
	host, ok := strings.CutPrefix(base, "http://")
	if ok {
		_, _, ok = plainURL(host, path)
	}
	return ok
}

func TestRequestMatchesNewRequest(t *testing.T) {
	plain := 0
	for _, base := range requestBases {
		for _, path := range requestPaths {
			sameRequest(t, base, path)
			if plainBase(base, path) {
				plain++
			}
		}
	}
	// The table must put real weight on both sides of plainURL.
	if total := len(requestBases) * len(requestPaths); plain < 100 || plain > total/2 {
		t.Fatalf("%d of %d combinations are plain", plain, total)
	}
	// What a campaign sends must take the fast path, or it is not one.
	for _, path := range []string{
		"/api/v1/instance", "/users/u17/followers?page=3",
		"/api/v1/timelines/public?local=true&limit=40&since_id=5&max_id=123456789", "/api/v1/instance/peers",
	} {
		for _, base := range []string{"http://d12.fedi.example", "http://127.0.0.1:8089"} {
			if !plainBase(base, path) {
				t.Errorf("%q + %q is not plain", base, path)
			}
		}
	}
	// NewRequestWithContext refuses a nil context; so must the fast path.
	if _, err := newGet(nil, "http://x.test", "/"); err == nil {
		t.Error("a nil context was accepted")
	}
}

func FuzzRequestURL(f *testing.F) {
	for i, base := range requestBases {
		f.Add(base, requestPaths[i%len(requestPaths)])
	}
	for i, path := range requestPaths {
		f.Add(requestBases[i%10], path)
	}
	f.Fuzz(func(t *testing.T, base, path string) { sameRequest(t, base, path) })
}

// refCreatedAt is how a status's created_at was read before mastodonTime.
func refCreatedAt(s string) (time.Time, error) {
	at, err := time.Parse("2006-01-02T15:04:05.000Z", s)
	if err != nil {
		at, err = time.Parse(time.RFC3339, s)
	}
	return at, err
}

var strictMastodonTime = regexp.MustCompile(`^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z$`)

// sameTime holds tootOf's timestamp to refCreatedAt's, compared with
// == (wall, ext and location pointer, not just the instant), and
// mastodonTime to its contract: it answers exactly the strings that are
// written strictly in its layout and that time.Parse accepts.
func sameTime(t testing.TB, s string) {
	t.Helper()
	want, wantErr := refCreatedAt(s)
	rec, gotErr := tootOf(&wire.StatusView{ID: []byte("1"), CreatedAt: []byte(s)})
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: error %v, want %v", s, gotErr, wantErr)
	}
	if wantErr == nil && rec.CreatedAt != want {
		t.Fatalf("%q: read as %#v, want %#v", s, rec.CreatedAt, want)
	}
	fast, ok := mastodonTime([]byte(s))
	strict, perr := time.Parse(mastodonLayout, s)
	if wantOK := perr == nil && strictMastodonTime.MatchString(s); ok != wantOK {
		t.Fatalf("%q: mastodonTime ok=%v, want %v (time.Parse: %v)", s, ok, wantOK, perr)
	}
	if ok && fast != strict {
		t.Fatalf("%q: mastodonTime %#v, time.Parse %#v", s, fast, strict)
	}
}

var mastodonTimes = []string{
	"2018-05-01T10:00:00.000Z", "2017-04-07T23:59:59.999Z", "0000-01-01T00:00:00.000Z", "9999-12-31T23:59:59.999Z",
	"2016-02-29T12:00:00.123Z", "2000-02-29T00:00:00.000Z", // leap years
	"2018-02-29T12:00:00.000Z", "1900-02-29T00:00:00.000Z", "2100-02-29T00:00:00.000Z", // and not
	"2018-02-28T12:00:00.000Z", "2018-02-30T12:00:00.000Z",
	"2018-04-31T00:00:00.000Z", "2018-06-31T00:00:00.000Z", "2018-09-31T00:00:00.000Z", "2018-11-31T00:00:00.000Z",
	"2018-04-30T00:00:00.000Z", "2018-01-31T00:00:00.000Z", "2018-12-31T00:00:00.000Z", "2018-01-32T00:00:00.000Z",
	"2018-05-00T00:00:00.000Z", "2018-00-10T00:00:00.000Z", "2018-13-10T00:00:00.000Z",
	"2018-05-01T24:00:00.000Z", "2018-05-01T23:60:00.000Z", "2018-05-01T23:59:60.000Z", "2018-05-01T23:59:59.999Z",
	"2018-05-01T10:00:00.000z", "2018-05-01t10:00:00.000Z", "2018-05-01 10:00:00.000Z",
	"2018-05-01T10:00:00.00Z", "2018-05-01T10:00:00.0000Z", "2018-05-01T10:00:00,000Z", // 23, 25 bytes; a comma
	"2018-05-01T1:00:00.000Z", "2018-5-01T10:00:00.000Z", "2018-05-1T10:00:00.000Z", "018-05-01T10:00:00.000Z",
	"2018-05-01T10:00:00.000", "2018-05-01T10:00:00.000ZZ", " 2018-05-01T10:00:00.000Z", "2018-05-01T10:00:00.000+",
	"2018-05-01T10:00:00Z", "2018-05-01T10:00:00.5Z", "2018-05-01T10:00:00.123456789Z", "2018-05-01T10:00:00+02:00",
	"2018-05-01T10:00:00.000+02:00", "2018-05-01T10:00:00-00:00", "2018-05-01T24:00:00Z", "2018-02-30T10:00:00Z",
	"+018-05-01T10:00:00.000Z", "-018-05-01T10:00:00.000Z", "2018-05-01T10:00:00.-00Z", "2018-05-01T+1:00:00.000Z",
	"", "yesterday", "2018-05-01", "２０１８-05-01T10:00:00.000Z",
}

func TestMastodonTimeMatchesTimeParse(t *testing.T) {
	for _, s := range mastodonTimes {
		sameTime(t, s)
	}
	// Every position in turn holds each kind of byte that is wrong there.
	const good = "2016-02-29T23:59:59.999Z"
	for i := 0; i < len(good); i++ {
		for _, c := range []byte{'x', ' ', '/', ':', '9' + 1, '0' - 1, '-', '.', 'T', 'Z', '0', '9', 0, 0x80, 0xff} {
			sameTime(t, good[:i]+string([]byte{c})+good[i+1:])
		}
		sameTime(t, good[:i]+good[i+1:])
		sameTime(t, good[:i]+"0"+good[i:])
	}
	// Every day of four years, leap and not, and every minute of a day.
	for d := time.Date(1999, 12, 30, 0, 0, 0, 0, time.UTC); d.Year() < 2005; d = d.Add(17*time.Hour + 61*time.Second + 7*time.Millisecond) {
		sameTime(t, d.Format(mastodonLayout))
	}
	if _, ok := mastodonTime([]byte("2018-05-01T10:00:00.000Z")); !ok {
		t.Fatal("the fast path refuses Mastodon's own timestamps")
	}
}

func FuzzMastodonTime(f *testing.F) {
	for _, s := range mastodonTimes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { sameTime(t, s) })
}

// refDecodeStatus is how a materialised status became a record.
func refDecodeStatus(ws wire.Status) (TootRec, error) {
	id, err := strconv.ParseInt(ws.ID, 10, 64)
	if err != nil {
		return TootRec{}, fmt.Errorf("crawler: bad status id %q: %w", ws.ID, err)
	}
	at, err := refCreatedAt(ws.CreatedAt)
	if err != nil {
		return TootRec{}, fmt.Errorf("crawler: bad created_at %q", ws.CreatedAt)
	}
	rec := TootRec{
		ID:        id,
		Acct:      ws.Account.Acct,
		CreatedAt: at,
		Content:   ws.Content,
		Boost:     ws.Reblog != nil,
	}
	for _, tg := range ws.Tags {
		rec.Hashtags = append(rec.Hashtags, tg.Name)
	}
	return rec, nil
}

// refCrawlInstance is CrawlInstance as it was: every page decoded into a
// []wire.Status (by encoding/json here; FuzzStatusesCodec in internal/wire
// holds the decoder it used to that), converted status by status into a
// slice per page, and the pages concatenated at the end.
func refCrawlInstance(tc *TootCrawler, ctx context.Context, domain string) (out InstanceCrawl) {
	out.Domain = domain
	local := "false"
	if tc.Local {
		local = "true"
	}
	since := tc.Since[domain]
	out.SinceID = since
	out.MaxID = since
	var pages [][]TootRec
	defer func() { out.Toots = slices.Concat(pages...) }()
	var maxID int64
	harvested := 0
	base := "/api/v1/timelines/public?local=" + local + "&limit=40"
	if since > 0 {
		base += "&since_id=" + strconv.FormatInt(since, 10)
	}
	for {
		path := base
		if maxID > 0 {
			path += "&max_id=" + strconv.FormatInt(maxID, 10)
		}
		var page []wire.Status
		_, err := tc.Client.GetChecked(ctx, domain, path, nil, func(b []byte) error {
			page = nil
			return json.Unmarshal(b, &page)
		})
		if err != nil {
			var se *StatusError
			var qe *QuarantinedError
			switch {
			case asStatusError(err, &se) && se.Code == 403:
				out.Blocked = true
			case asStatusError(err, &se) && se.Code/100 == 5:
				out.Offline = true
				out.Err = err
			case asStatusError(err, &se):
				out.Err = err
			case errors.As(err, &qe):
				out.Offline = true
				out.Quarantined = true
				out.Err = err
			default:
				out.Offline = true
				out.Err = err
			}
			return out
		}
		out.Pages++
		if len(page) == 0 {
			return out
		}
		recs := make([]TootRec, 0, len(page))
		done := false
		for _, ws := range page {
			rec, err := refDecodeStatus(ws)
			if err != nil {
				out.Err = err
				done = true
				break
			}
			if since > 0 && rec.ID <= since {
				done = true
				break
			}
			recs = append(recs, rec)
			if rec.ID > out.MaxID {
				out.MaxID = rec.ID
			}
			if maxID == 0 || rec.ID < maxID {
				maxID = rec.ID
			}
			if tc.MaxToots > 0 && harvested+len(recs) >= tc.MaxToots {
				done = true
				break
			}
		}
		if len(recs) > 0 {
			pages = append(pages, recs)
			harvested += len(recs)
		}
		if done {
			return out
		}
	}
}

// scripted answers the i-th request with the i-th reply ("[]" once they run
// out) and notes what was asked.
type scripted struct {
	replies []reply
	asked   []string
}

type reply struct {
	code int // 0 = 200
	body string
}

func (s *scripted) RoundTrip(req *http.Request) (*http.Response, error) {
	r := reply{body: "[]"}
	if len(s.asked) < len(s.replies) {
		r = s.replies[len(s.asked)]
	}
	s.asked = append(s.asked, req.Host+req.URL.RequestURI())
	rec := httptest.NewRecorder()
	if r.code != 0 {
		rec.WriteHeader(r.code)
	}
	rec.WriteString(r.body)
	return rec.Result(), nil
}

// pagesOf is a timeline of n toots, newest first, in full pages.
func pagesOf(n int, st func(id int, rest string) string) (replies []reply) {
	for id := n + 100; id > 100; {
		var page []string
		for ; id > 100 && len(page) < statusPage; id-- {
			page = append(page, st(id, ""))
		}
		replies = append(replies, reply{body: "[" + strings.Join(page, ",") + "]"})
	}
	return replies
}

// crawlText renders a harvest for comparison. A payload that never decoded
// is worded by whichever decoder refused it, so it is reduced to where it
// happened; every other error keeps its text.
func crawlText(c InstanceCrawl) string {
	var ie *IntegrityError
	if errors.As(c.Err, &ie) {
		c.Err = fmt.Errorf("bad payload at %s%s", ie.Domain, ie.Path)
	}
	return fmt.Sprintf("%+v", c)
}

// TestHarvestMatchesReference scripts the timelines that make the scanning
// harvest and the materialising one take different code: both must send the
// same requests and come back with the same harvest.
func TestHarvestMatchesReference(t *testing.T) {
	st := func(id int, rest string) string {
		return fmt.Sprintf(`{"id":"%d","created_at":"2018-05-01T10:00:00.000Z","content":"toot %d","account":{"username":"u%d","acct":"u%d@x.test"}%s}`,
			id, id, id%3, id%3, rest)
	}
	page := func(statuses ...string) string { return "[" + strings.Join(statuses, ",") + "]" }
	run := func(from, to int) (out []string) { // ids from down to to
		for id := from; id >= to; id-- {
			out = append(out, st(id, ""))
		}
		return out
	}
	ok := func(body string) reply { return reply{body: body} }
	for _, tc := range []struct {
		name     string
		since    int64
		maxToots int
		replies  []reply
		toots    int // what both must harvest, so that agreeing on nothing fails
	}{
		{name: "three pages and the empty one", replies: []reply{ok(page(run(120, 81)...)), ok(page(run(80, 41)...)), ok(page(run(40, 38)...))}, toots: 83},
		{name: "a null page ends it", replies: []reply{ok(page(run(9, 8)...)), ok("null")}, toots: 2},
		{name: "bad id mid-page", replies: []reply{ok(page(st(10, ""), st(9, ""), `{"id":"x9","created_at":"2018-05-01T10:00:00.000Z"}`, st(7, "")))}, toots: 2},
		{name: "bad id opens the page", replies: []reply{ok(page(run(10, 9)...)), ok(page(`{"id":""}`, st(7, "")))}, toots: 2},
		{name: "a null status is a bad id", replies: []reply{ok(page(st(10, ""), "null", st(8, "")))}, toots: 1},
		{name: "bad created_at", replies: []reply{ok(page(run(10, 9)...)), ok(page(st(8, ""), `{"id":"7","created_at":"yesterday"}`, `{"id":"x"}`))}, toots: 3},
		{name: "RFC 3339 and a looser spelling", replies: []reply{ok(page(`{"id":"3","created_at":"2018-05-01T10:00:00+02:00"}`, `{"id":"2","created_at":"2018-05-01T1:00:00.000Z"}`))}, toots: 2},
		{name: "since cut-off inside a page", since: 5, replies: []reply{ok(page(run(8, 3)...))}, toots: 3},
		{name: "since cut-off hides a bad id behind it", since: 5, replies: []reply{ok(page(st(8, ""), st(5, ""), `{"id":"x"}`))}, toots: 1},
		{name: "since cut-off on the first status", since: 5, replies: []reply{ok(page(run(5, 1)...))}},
		{name: "since with nothing new", since: 5, replies: []reply{ok("[]")}},
		{name: "since with one new toot", since: 5, replies: []reply{ok(page(run(6, 4)...))}, toots: 1},
		{name: "MaxToots inside the first page", maxToots: 3, replies: []reply{ok(page(run(9, 5)...))}, toots: 3},
		{name: "MaxToots inside the second page", maxToots: 7, replies: []reply{ok(page(run(9, 5)...)), ok(page(run(4, 1)...))}, toots: 7},
		{name: "MaxToots at a page's last status", maxToots: 5, replies: []reply{ok(page(run(9, 5)...)), ok(page(run(4, 1)...))}, toots: 5},
		{name: "MaxToots before a bad id", maxToots: 2, replies: []reply{ok(page(st(9, ""), st(8, ""), `{"id":"x"}`))}, toots: 2},
		{name: "escaped and non-ASCII strings", replies: []reply{ok(page(
			`{"id":"\u0039","created_at":"2018-05-01T10:00:00\u002e000Z","content":"caf\u00e9 \ud83d\ude00 \"q\"","account":{"acct":"a\u0040x.test"}}`,
			`{"id":"8","created_at":"2018-05-01T10:00:00.000Z","content":"naïve","account":{"acct":"ü@x.test"},"tags":[{"name":"t\u00e4g"}]}`,
			`{"id":"7","created_at":"2018-05-01T10:00:00.000Z","account":{"acct":"a@x.test"}}`))}, toots: 3},
		{name: "tags null, empty, merged and boosts", replies: []reply{ok(page(
			st(9, `,"tags":null`), st(8, `,"tags":[]`), st(7, `,"tags":[{"name":"a"},{"name":"b"}]`),
			st(6, `,"tags":[{"name":"a"},{"name":"b"}],"tags":[{"name":null}]`), st(5, `,"tags":[{"name":"a"}],"tags":null`),
			st(4, `,"reblog":{"uri":"far.test/1"}`), st(3, `,"reblog":{"uri":"far.test/1"},"reblog":null`), st(2, `,"reblog":{}`)))}, toots: 8},
		{name: "duplicate and case-folded keys", replies: []reply{ok(page(
			`{"id":"1","ID":"9","created_at":"never","Created_At":"2018-05-01T10:00:00.000Z","account":{"acct":"a@x.test"},"ACCOUNT":{"username":"b"},"account":null}`))}, toots: 1},
		{name: "a corrupt page and its retry", replies: []reply{ok(page(run(9, 5)...)),
			ok(page(run(4, 1)...)[:150]), ok(page(run(4, 1)...))}, toots: 9},
		{name: "a page with a dropped field of the wrong type and its retry", replies: []reply{
			ok(page(st(9, ""), `{"id":"8","created_at":"2018-05-01T10:00:00.000Z","account":{"username":8}}`)), ok(page(run(9, 8)...))}, toots: 2},
		{name: "a corrupt page with a bad id in it and its retry", replies: []reply{
			ok(page(st(9, ""), `{"id":"x"}`, st(7, ""))[:150]), ok(page(run(9, 8)...))}, toots: 2},
		{name: "a page that stays corrupt", replies: []reply{ok(page(run(9, 5)...)),
			ok(page(run(4, 3)...) + "]"), ok(`[{"id":"4","account":7}]`), ok(page(run(4, 1)...)[:150]), ok(page(run(4, 1)...))}, toots: 5},
		{name: "more than a scratch chunk", replies: pagesOf(scratchChunk+500, st), toots: scratchChunk + 500},
		{name: "MaxToots past a scratch chunk", maxToots: scratchChunk + 70, replies: pagesOf(scratchChunk+500, st), toots: scratchChunk + 70},
		{name: "a bad id past a scratch chunk", replies: append(pagesOf(scratchChunk+8, st), ok(page(st(9, ""), `{"id":"x"}`))), toots: scratchChunk + 9},
		{name: "blocked", replies: []reply{{code: 403, body: "no"}}},
		{name: "down after a page", replies: []reply{ok(page(run(9, 5)...)), {code: 503}, {code: 503}, {code: 503}}, toots: 5},
		{name: "gone after a page", replies: []reply{ok(page(run(9, 5)...)), {code: 404}}, toots: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crawl := func(harvest func(*TootCrawler, context.Context, string) InstanceCrawl) (InstanceCrawl, []string) {
				rt := &scripted{replies: tc.replies}
				c := &TootCrawler{
					Client:   &Client{HTTP: &http.Client{Transport: rt}, Retries: 3, Backoff: time.Microsecond},
					MaxToots: tc.maxToots, Local: true,
				}
				if tc.since > 0 {
					c.Since = map[string]int64{"x.test": tc.since}
				}
				return harvest(c, context.Background(), "x.test"), rt.asked
			}
			got, gotAsked := crawl((*TootCrawler).CrawlInstance)
			want, wantAsked := crawl(refCrawlInstance)
			if !reflect.DeepEqual(gotAsked, wantAsked) {
				t.Fatalf("requests differ:\n got  %q\n want %q", gotAsked, wantAsked)
			}
			if g, w := crawlText(got), crawlText(want); g != w || (got.Toots == nil) != (want.Toots == nil) {
				t.Fatalf("harvests differ:\n got  %s\n want %s", g, w)
			}
			if len(got.Toots) != tc.toots {
				t.Fatalf("harvested %d toots, the script holds %d", len(got.Toots), tc.toots)
			}
			for i := range got.Toots {
				if (got.Toots[i].Hashtags == nil) != (want.Toots[i].Hashtags == nil) {
					t.Fatalf("toot %d: Hashtags %#v, want %#v", i, got.Toots[i].Hashtags, want.Toots[i].Hashtags)
				}
			}
		})
	}
}

// TestScratchMatchesAppend: whatever mix of pages, cuts and spills fills a
// scratch, its result is what appending the same records to one slice
// gives, and what goes back to the pool holds none of them.
func TestScratchMatchesAppend(t *testing.T) {
	var pool scratchPool[*int]
	// Every page appends two records more than it keeps, so a page of 40
	// needs room for 42. The pages marked grow are longer than that room.
	for _, tc := range []struct {
		pages []int
		grows bool
	}{
		{pages: []int{}}, {pages: []int{0}}, {pages: []int{3}}, {pages: []int{40, 40, 7}},
		{pages: []int{scratchChunk - 2}}, {pages: []int{scratchChunk - 42, 40, 40}}, {pages: []int{scratchChunk - 41, 40, 40}},
		{pages: []int{scratchChunk - 1}, grows: true}, {pages: []int{scratchChunk + 1, 5}, grows: true},
		{pages: []int{4000, 4000, 4000, 4000, 4000, 9}, grows: true},
	} {
		pages := tc.pages
		s := pool.get()
		var want []*int
		for p, n := range pages {
			s.spill(42)
			kept := len(s.chunk)
			for k := 0; k < n+2; k++ {
				s.chunk = append(s.chunk, new(int))
			}
			s.cut(kept + n) // the page's last two records are not kept
			want = append(want, s.chunk[kept:]...)
			if got := s.n + len(s.chunk); got != len(want) {
				t.Fatalf("pages %v: %d records counted after page %d, want %d", pages, got, p, len(want))
			}
		}
		if got := s.result(); !reflect.DeepEqual(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("pages %v: result has %d records, want %d", pages, len(got), len(want))
		}
		if grew := cap(s.chunk) != scratchChunk; grew != tc.grows {
			t.Fatalf("pages %v: the chunk holds %d records", pages, cap(s.chunk))
		}
		chunk := s.chunk[:cap(s.chunk)]
		pool.put(s)
		for i, p := range chunk {
			if p != nil {
				t.Fatalf("pages %v: slot %d of the chunk still points at a record", pages, i)
			}
		}
		if s.full != nil && cap(chunk) == scratchChunk {
			t.Fatalf("pages %v: a pooled scratch keeps its spilled chunks", pages)
		}
	}
}
