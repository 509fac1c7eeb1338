package crawler

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// The loops the campaign's request path and bookkeeping used to run, kept
// as the specifications their replacements are held against: the probe log
// that did three string-map operations a sample, the request built by
// parsing the URL it had just concatenated, the timestamp read by
// time.Parse's layout interpreter.

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
func TestProbeLogCopiesOut(t *testing.T) {
	log := NewProbeLog()
	in := []Sample{{Domain: "a", Online: true}, {Domain: "b"}}
	log.Add(in)
	in[0].Online = false
	log.Samples("a")[0].Online = false
	log.Domains()[0] = "x"
	if ss := log.Samples("a"); len(ss) != 1 || !ss[0].Online || log.Domains()[0] != "a" {
		t.Fatalf("the log shares memory with its callers: %v %v", ss, log.Domains())
	}
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

func TestRequestMatchesNewRequest(t *testing.T) {
	plain := 0
	for _, base := range requestBases {
		for _, path := range requestPaths {
			sameRequest(t, base, path)
			if _, _, _, ok := plainURL(base, path); ok {
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
			if _, _, _, ok := plainURL(base, path); !ok {
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

// refCreatedAt is how decodeStatus read created_at before mastodonTime.
func refCreatedAt(s string) (time.Time, error) {
	at, err := time.Parse("2006-01-02T15:04:05.000Z", s)
	if err != nil {
		at, err = time.Parse(time.RFC3339, s)
	}
	return at, err
}

var strictMastodonTime = regexp.MustCompile(`^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z$`)

// sameTime holds decodeStatus's timestamp to refCreatedAt's, compared with
// == (wall, ext and location pointer, not just the instant), and
// mastodonTime to its contract: it answers exactly the strings that are
// written strictly in its layout and that time.Parse accepts.
func sameTime(t testing.TB, s string) {
	t.Helper()
	want, wantErr := refCreatedAt(s)
	rec, gotErr := decodeStatus(wireStatus{ID: "1", CreatedAt: s})
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: error %v, want %v", s, gotErr, wantErr)
	}
	if wantErr == nil && rec.CreatedAt != want {
		t.Fatalf("%q: read as %#v, want %#v", s, rec.CreatedAt, want)
	}
	fast, ok := mastodonTime(s)
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
	if _, ok := mastodonTime("2018-05-01T10:00:00.000Z"); !ok {
		t.Fatal("the fast path refuses Mastodon's own timestamps")
	}
}

func FuzzMastodonTime(f *testing.F) {
	for _, s := range mastodonTimes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { sameTime(t, s) })
}
