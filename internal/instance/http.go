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
// Meta pages are cached: encoded once with the internal/wire append codecs
// and replayed until a mutation that changes them bumps the generation of
// their page kind. Timeline and follower pages are not: a timeline 200
// joins its statuses' renders, which the server keeps once each (memo.go),
// and a follower 200 renders its slice of the follower table. Every page
// kind's generation names its ETag. A crawler hammering a quiet
// instance — the §3 steady state — costs a join or a render into one
// buffer per request, no JSON encoder, no reflection, and leaves nothing
// behind per query; an inbox delivery — the write a live instance sees
// most — renders only the statuses that are new.

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

// metaPage is one of the three pages of kindMeta, each cached in a slot
// of its own.
type metaPage uint8

const (
	metaHome     metaPage = iota // the homepage
	metaInstance                 // the instance API
	metaPeers                    // the peers list
	numMeta
)

// pageCache holds the page kinds' generations and the rendered meta pages,
// each stamped with the generation of meta that was current before its
// render started. A lookup only hits when the stamp still is the
// generation: a mutation invalidates every page of the kinds it names at
// the cost of one atomic increment each.
type pageCache struct {
	gens [numKinds]atomic.Uint64
	mu   sync.Mutex
	meta [numMeta]struct {
		gen  uint64
		body []byte // nil until the page is first rendered
	}

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

// metaBody returns meta page p if it was rendered under generation g.
func (c *pageCache) metaBody(p metaPage, g uint64) ([]byte, bool) {
	c.mu.Lock()
	e := c.meta[p]
	c.mu.Unlock()
	return e.body, e.body != nil && e.gen == g
}

// storeMeta caches body, meta page p rendered under generation g. It does
// not clobber a page rendered under a newer generation: a renderer that
// raced a mutation holds the older stamp and must lose.
func (c *pageCache) storeMeta(p metaPage, g uint64, body []byte) {
	c.mu.Lock()
	if e := &c.meta[p]; e.body == nil || e.gen <= g {
		e.gen, e.body = g, body
	}
	c.mu.Unlock()
}

// revalidate stamps a GET of a page of kind with the kind's current
// generation and sets its ETag; it answers 304 and returns done when the
// request's If-None-Match certifies that generation.
//
// Conditional GET rides the same counter as the meta cache: the page's
// component of the ETag is the generation loaded at the top of the
// request, before any state is read, so an If-None-Match hit (304)
// certifies "no mutation of this kind of page has completed since that tag
// was issued" — and a 200 is at least as new as the tag it carries. A write
// that completes before the load flips the component and forces a full
// 200; a write that lands after the load is concurrent with this request
// and may legitimately order after it.
func (s *Server) revalidate(w http.ResponseWriter, r *http.Request, kind pageKind) (g uint64, done bool) {
	g = s.pages.gens[kind].Load()
	w.Header()["Etag"] = s.pages.etagFor(kind, g)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, kind, g) {
		w.WriteHeader(http.StatusNotModified)
		return g, true
	}
	return g, false
}

// serveMeta writes meta page p: a cache hit replays stored bytes; a miss
// renders under the generation revalidate read before any state, so a
// concurrent mutation can only strand the entry stale, never serve stale.
func (s *Server) serveMeta(w http.ResponseWriter, r *http.Request, ctype []string, p metaPage, render func(dst []byte) []byte) {
	g, done := s.revalidate(w, r, kindMeta)
	if done {
		return
	}
	w.Header()["Content-Type"] = ctype
	body, ok := s.pages.metaBody(p, g)
	if !ok {
		// Rendered into a pooled buffer and cached as an exact copy, a page
		// rests at its length and costs one allocation.
		buf := renderBufs.Get().(*[]byte)
		*buf = render((*buf)[:0])
		body = make([]byte, len(*buf))
		copy(body, *buf)
		renderBufs.Put(buf)
		s.pages.storeMeta(p, g, body)
	}
	w.Write(body)
}

// renderBufs holds the scratch buffers pages are rendered and joined into.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

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
	s.serveMeta(w, r, ctypeHTML, metaHome, func(dst []byte) []byte {
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
	s.serveMeta(w, r, ctypeJSON, metaInstance, func(dst []byte) []byte {
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
	s.serveMeta(w, r, ctypeJSON, metaPeers, func(dst []byte) []byte {
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
		limit = min(n, maxPageStatuses)
	}
	pk := kindFederated
	if kind == TimelineLocal {
		pk = kindLocal
	}
	if _, done := s.revalidate(w, r, pk); done {
		return
	}
	w.Header()["Content-Type"] = ctypeJSON
	buf := renderBufs.Get().(*[]byte)
	*buf = s.appendTimeline((*buf)[:0], kind, maxID, sinceID, limit)
	w.Write(*buf)
	renderBufs.Put(buf)
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

// followerPageSize is the number of followers a follower page lists.
const followerPageSize = 40

// serveFollowers renders the paged HTML follower list
// (https://<domain>/users/<name>/followers, §3 footnote 1). The page is not
// cached: a 200 copies its followers out of the follower table under the
// read lock and renders them into a pooled buffer.
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
	// An unknown account is a 404 with no ETag. Accounts are never
	// removed, so a is still the account when the page is rendered.
	a := s.Account(name)
	if a == nil {
		notFound(w)
		return
	}
	if _, done := s.revalidate(w, r, kindFollowers); done {
		return
	}
	w.Header()["Content-Type"] = ctypeHTML
	var actors [followerPageSize]federation.Actor
	s.mu.RLock()
	// A page past the end is the empty page. Clamping to the first such page
	// before multiplying keeps a hostile page number from overflowing the
	// offset negative.
	n := len(a.followers)
	lo := min(min(page-1, n/followerPageSize+1)*followerPageSize, n)
	hi := min(lo+followerPageSize, n)
	for i, ai := range a.followers[lo:hi] {
		actors[i] = s.store.actors[ai]
	}
	s.mu.RUnlock()
	buf := renderBufs.Get().(*[]byte)
	*buf = wire.AppendFollowerPage((*buf)[:0], name, actors[:hi-lo], page, hi < n)
	w.Write(*buf)
	renderBufs.Put(buf)
}
