package instance

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/federation"
	"repro/internal/wire"
)

// This file is the HTTP face of a Server: the instance metadata API that
// mnm.social polled every five minutes, the paged public-timeline API the
// toot crawler consumed, the HTML follower pages the graph crawler scraped,
// the homepage used as the availability probe, and the federation inbox.
//
// Every GET endpoint renders through a per-page byte cache: responses are
// encoded once with the internal/wire append codecs and replayed verbatim
// until a mutation that changes them bumps the generation of their page
// kind. A crawler hammering a quiet instance — the §3 steady state — costs
// one buffer write per request, no JSON encoder, no reflection; an inbox
// delivery — the write a live instance sees most — costs only the federated
// timeline's pages.

// pageKind groups the pages that the same mutations change. Each kind has
// its own generation; a mutation names the kinds it dirtied.
type pageKind uint8

const (
	kindMeta      pageKind = iota // home, instance API, peers
	kindLocal                     // local timeline pages
	kindFederated                 // federated timeline pages
	kindFollowers                 // follower pages
	numKinds
)

// pageKey identifies one cacheable rendered response.
type pageKey struct {
	kind pageKind
	page byte   // kindMeta: 'h' home, 'i' instance API, 'p' peers
	name string // follower pages: the account
	a, b int64  // timeline: maxID, limit; followers: page number
	c    int64  // timeline: sinceID (delta-crawl pages cache separately)
}

type pageEntry struct {
	gen  uint64
	body []byte
}

// maxCachedPages bounds the per-server cache; overflow resets it (the keys
// in play rebuild on the next pass).
const maxCachedPages = 4096

// pageCache holds rendered pages, each stamped with the generation of its
// kind that was current before its render started. A lookup only hits when
// the entry's generation still is the kind's: a mutation invalidates every
// page of the kinds it names at the cost of one atomic increment each.
type pageCache struct {
	gens    [numKinds]atomic.Uint64
	mu      sync.Mutex
	entries map[pageKey]pageEntry

	// etag caches the rendered ETag for the generation vector it was built
	// under, so the conditional-GET hot path costs one pointer load per
	// request instead of one string allocation.
	etag atomic.Pointer[etagVal]
}

// etagVal is a rendered tag as the header value it is served as: a header
// map is assigned hdr itself, like ctypeJSON below.
type etagVal struct {
	gens [numKinds]uint64
	hdr  []string
}

// etagFor returns the entity tag of a page of kind stamped g: the version
// vector of all kind generations, "g<meta>.<local>.<fed>.<followers>". The
// tag is server-wide in form because clients remember one tag per host and
// revalidate any page with it; etagMatch reads only the component of the
// page asked for, which is exactly g — the other components are whatever
// their counters held during this request.
func (c *pageCache) etagFor(kind pageKind, g uint64) []string {
	var v [numKinds]uint64
	for k := range v {
		v[k] = c.gens[k].Load()
	}
	v[kind] = g
	if ev := c.etag.Load(); ev != nil && ev.gens == v {
		return ev.hdr
	}
	var buf [3 + numKinds*21]byte // "g", then up to 20 digits and a separator per kind
	b := append(buf[:0], `"g`...)
	for k, g := range v {
		if k > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, g, 10)
	}
	hdr := []string{string(append(b, '"'))}
	c.etag.Store(&etagVal{gens: v, hdr: hdr})
	return hdr
}

func (c *pageCache) invalidate(kinds ...pageKind) {
	for _, k := range kinds {
		c.gens[k].Add(1)
	}
}

// get returns the entry's body and whether it is still fresh; a stale body
// is returned too, as the best guess at the size of its replacement.
func (c *pageCache) get(key pageKey, g uint64) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	return e.body, ok && e.gen == g
}

func (c *pageCache) put(key pageKey, g uint64, body []byte) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[pageKey]pageEntry)
	} else if len(c.entries) >= maxCachedPages {
		clear(c.entries)
	}
	// Never clobber a page rendered under a newer generation: a renderer
	// that raced a mutation holds the older stamp and must lose.
	if e, ok := c.entries[key]; !ok || e.gen <= g {
		c.entries[key] = pageEntry{gen: g, body: body}
	}
	c.mu.Unlock()
}

// servePage writes one cacheable response: a cache hit replays stored
// bytes; a miss renders under the generation of the page's kind read before
// any state, so a concurrent mutation can only strand the entry stale, never
// serve stale.
//
// Conditional GET rides the same counter: the page's component of the ETag
// is the generation loaded at the top of the request, so an If-None-Match
// hit (304) certifies "no mutation of this kind of page has completed since
// that tag was issued" — the same linearization point the byte cache uses.
// A write that completes before the load flips the component and forces a
// full 200; a write that lands after the load is concurrent with this
// request and may legitimately order after it.
func (s *Server) servePage(w http.ResponseWriter, r *http.Request, ctype []string, key pageKey, render func(dst []byte) []byte) {
	g := s.pages.gens[key.kind].Load()
	w.Header()["Etag"] = s.pages.etagFor(key.kind, g)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, key.kind, g) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header()["Content-Type"] = ctype
	body, fresh := s.pages.get(key, g)
	if !fresh {
		// Sized from the entry being replaced, a re-render is one allocation
		// instead of an append-doubling chain.
		body = render(make([]byte, 0, len(body)+len(body)/8))
		s.pages.put(key, g, body)
	}
	w.Write(body)
}

// etagMatch reports whether the If-None-Match header value certifies
// generation g of kind, under RFC 7232 weak comparison: "*" matches
// anything, W/ prefixes are ignored, and the header may list several
// comma-separated tags. A listed tag matches when it is a well-formed
// generation vector whose kind component is g; its other components are
// not this page's business.
func etagMatch(header string, kind pageKind, g uint64) bool {
	for {
		header = strings.TrimLeft(header, " \t,")
		if header == "" {
			return false
		}
		if header[0] == '*' {
			return true
		}
		cand := header
		if strings.HasPrefix(cand, "W/") {
			cand = cand[2:]
		}
		if len(cand) < 2 || cand[0] != '"' {
			return false // malformed; no tag can match
		}
		end := strings.IndexByte(cand[1:], '"')
		if end < 0 {
			return false
		}
		if vectorHas(cand[1:end+1], kind, g) {
			return true
		}
		header = cand[end+2:]
	}
}

// vectorHas reports whether tag (quotes stripped) is "g" followed by
// exactly numKinds dot-separated decimal generations, kind's being g.
func vectorHas(tag string, kind pageKind, g uint64) bool {
	if tag == "" || tag[0] != 'g' {
		return false
	}
	tag = tag[1:]
	match := false
	for k := pageKind(0); k < numKinds; k++ {
		comp, rest, more := strings.Cut(tag, ".")
		n, err := strconv.ParseUint(comp, 10, 64)
		if err != nil || more != (k < numKinds-1) {
			return false
		}
		if k == kind {
			match = n == g
		}
		tag = rest
	}
	return match
}

// Header values the handlers assign without allocating. A header map only
// ever shares these (Set and Add replace or copy a one-element slice), so
// nothing may write through an element.
var (
	ctypeHTML  = []string{"text/html; charset=utf-8"}
	ctypeJSON  = []string{"application/json; charset=utf-8"}
	ctypePlain = []string{"text/plain; charset=utf-8"}
	noSniff    = []string{"nosniff"}
)

// refuse answers with a plain-text error: the headers, status and body
// http.Error would send (TestRefusalWireBytes holds the two together),
// without its three canonicalising header calls and its fmt.Fprintln —
// four in ten campaign requests end here.
func refuse(w http.ResponseWriter, code int, msg string) {
	h := w.Header()
	delete(h, "Content-Length")
	h["Content-Type"] = ctypePlain
	h["X-Content-Type-Options"] = noSniff
	w.WriteHeader(code)
	io.WriteString(w, msg)
	io.WriteString(w, "\n")
}

func notFound(w http.ResponseWriter) { refuse(w, http.StatusNotFound, "404 page not found") }

// ServeHTTP implements http.Handler for one instance.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.Online() {
		refuse(w, http.StatusServiceUnavailable, "instance unavailable")
		return
	}
	switch {
	case r.URL.Path == "/" || r.URL.Path == "/about":
		s.serveHome(w, r)
	case r.URL.Path == "/api/v1/instance":
		s.serveInstanceAPI(w, r)
	case r.URL.Path == "/api/v1/instance/peers":
		s.servePeers(w, r)
	case r.URL.Path == "/api/v1/timelines/public":
		s.serveTimeline(w, r)
	case r.URL.Path == "/inbox":
		s.serveInbox(w, r)
	case strings.HasPrefix(r.URL.Path, "/users/") && strings.HasSuffix(r.URL.Path, "/followers"):
		s.serveFollowers(w, r)
	default:
		notFound(w)
	}
}

func (s *Server) serveHome(w http.ResponseWriter, r *http.Request) {
	s.servePage(w, r, ctypeHTML, pageKey{kind: kindMeta, page: 'h'}, func(dst []byte) []byte {
		st := s.Stats()
		dst = append(dst, "<html><head><title>"...)
		dst = wire.AppendHTMLEscaped(dst, st.Domain)
		dst = append(dst, "</title></head><body><h1>"...)
		dst = wire.AppendHTMLEscaped(dst, st.Domain)
		dst = append(dst, "</h1><p>"...)
		dst = strconv.AppendInt(dst, int64(st.Users), 10)
		dst = append(dst, " users, "...)
		dst = strconv.AppendInt(dst, st.Statuses, 10)
		return append(dst, " toots</p></body></html>"...)
	})
}

func (s *Server) serveInstanceAPI(w http.ResponseWriter, r *http.Request) {
	s.servePage(w, r, ctypeJSON, pageKey{kind: kindMeta, page: 'i'}, func(dst []byte) []byte {
		st := s.Stats()
		info := wire.InstanceInfo{
			URI:           st.Domain,
			Title:         st.Domain,
			Version:       versionString(st),
			Registrations: st.Open,
			Stats: wire.InstanceStats{
				UserCount:     st.Users,
				StatusCount:   st.Statuses,
				DomainCount:   st.Peers,
				RemoteFollows: st.RemoteFollows,
			},
		}
		return append(wire.AppendInstanceInfo(dst, &info), '\n')
	})
}

func versionString(st Stats) string {
	if st.Software == "pleroma" {
		return st.Version + " (compatible; Pleroma)"
	}
	return st.Version
}

func (s *Server) servePeers(w http.ResponseWriter, r *http.Request) {
	s.servePage(w, r, ctypeJSON, pageKey{kind: kindMeta, page: 'p'}, func(dst []byte) []byte {
		return append(wire.AppendPeers(dst, s.subs.PeerDomains()), '\n')
	})
}

func (s *Server) serveTimeline(w http.ResponseWriter, r *http.Request) {
	if s.cfg.BlocksCrawl {
		refuse(w, http.StatusForbidden, "timeline crawling is not allowed on this instance")
		return
	}
	q := queryOf(r.URL.RawQuery)
	kind := TimelineFederated
	if q.Get("local") == "true" || q.Get("local") == "1" {
		kind = TimelineLocal
	}
	var maxID int64
	if v := q.Get("max_id"); v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil || id < 0 {
			refuse(w, http.StatusBadRequest, "bad max_id")
			return
		}
		maxID = id
	}
	var sinceID int64
	if v := q.Get("since_id"); v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil || id < 0 {
			refuse(w, http.StatusBadRequest, "bad since_id")
			return
		}
		sinceID = id
	}
	limit := 20
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			refuse(w, http.StatusBadRequest, "bad limit")
			return
		}
		if n > 40 {
			n = 40 // Mastodon caps page size at 40
		}
		limit = n
	}
	key := pageKey{kind: kindFederated, a: maxID, b: int64(limit), c: sinceID}
	if kind == TimelineLocal {
		key.kind = kindLocal
	}
	s.servePage(w, r, ctypeJSON, key, func(dst []byte) []byte {
		return append(s.appendTimelineJSON(dst, kind, maxID, sinceID, limit), '\n')
	})
}

// query reads a URL's raw query the way r.URL.Query() does. Without '%',
// '+' or ';' no key or value changes under url.ParseQuery and no pair is
// refused, so such a query — every one a crawler sends — is read in place;
// any other is parsed.
type query struct {
	raw    string
	parsed url.Values // nil: raw is read in place
}

func queryOf(raw string) query {
	q := query{raw: raw}
	if strings.ContainsAny(raw, "%+;") {
		q.parsed, _ = url.ParseQuery(raw) // what it refuses it leaves out, as r.URL.Query() does
	}
	return q
}

// Get returns the first value of key, "" if there is none.
func (q query) Get(key string) string {
	if q.parsed != nil {
		return q.parsed.Get(key)
	}
	for rest := q.raw; rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key && pair != "" {
			return v
		}
	}
	return ""
}

// maxInboxBody is the largest activity the inbox accepts.
const maxInboxBody = 1 << 20

func (s *Server) serveInbox(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		refuse(w, http.StatusMethodNotAllowed, "inbox accepts POST only")
		return
	}
	// One byte past the limit is read so that a body over it is seen to be
	// over it, and refused whole rather than delivered cut short.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxInboxBody+1))
	if err != nil {
		refuse(w, http.StatusBadRequest, "read error")
		return
	}
	if len(body) > maxInboxBody {
		refuse(w, http.StatusRequestEntityTooLarge, "inbox body too large")
		return
	}
	// A body that is not an activity is a 400; one that is, but that
	// Receive refuses — Validate included — is a 422.
	var a federation.Activity
	if err := wire.UnmarshalActivity(body, &a); err != nil {
		refuse(w, http.StatusBadRequest, "federation: bad activity: "+err.Error())
		return
	}
	if err := s.Receive(r.Context(), &a); err != nil {
		refuse(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// serveFollowers renders the paged HTML follower list
// (https://<domain>/users/<name>/followers, §3 footnote 1).
func (s *Server) serveFollowers(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/users/"), "/followers")
	if name == "" || strings.Contains(name, "/") {
		notFound(w)
		return
	}
	page := 1
	if v := queryOf(r.URL.RawQuery).Get("page"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			refuse(w, http.StatusBadRequest, "bad page")
			return
		}
		page = p
	}
	// The existence check stays outside the cache so unknown accounts are
	// 404s, not cached pages.
	if s.Account(name) == nil {
		notFound(w)
		return
	}
	s.servePage(w, r, ctypeHTML, pageKey{kind: kindFollowers, name: name, a: int64(page)},
		func(dst []byte) []byte {
			actors, hasNext, err := s.Followers(name, page, 40)
			if err != nil {
				actors, hasNext = nil, false // account vanished mid-render
			}
			return wire.AppendFollowerPage(dst, name, actors, page, hasNext)
		})
}
