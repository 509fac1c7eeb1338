package simnet

import (
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"strconv"
	"sync"
)

// MemoryTransport is an http.RoundTripper that serves requests straight
// from an http.Handler — no sockets, no listeners, no ports. The handler
// (an instance.Network) routes on the Host header, so the crawler stack
// runs unmodified against a fediverse that exists only in memory.
//
// The handler runs on the caller's goroutine and has returned before
// RoundTrip does. The response carries what a net/http server would have
// recorded: the status of the first WriteHeader (200 if the handler wrote
// or returned without one), the header map as it stood at that moment,
// ContentLength from a Content-Length the handler set (−1 otherwise), and
// every byte written.
//
// Ownership: the *http.Response and its Header belong to the caller for
// good, as net/http promises — only the bytes behind Body are borrowed.
// They sit in a pooled buffer that Body.Close gives back, so a response
// that is never closed costs one buffer and corrupts nothing.
type MemoryTransport struct {
	Handler http.Handler
}

// RoundTrip implements http.RoundTripper.
func (t *MemoryTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	e := &exchange{buf: bodyPool.Get().(*[]byte)}
	e.resp = http.Response{
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Body:       e,
		Request:    req,
	}
	t.Handler.ServeHTTP(e, req)
	if !e.wrote {
		e.WriteHeader(http.StatusOK)
	}
	return &e.resp, nil
}

// maxPooledBody is the largest body buffer Close returns to the pool; one
// oversized page must not pin its megabytes behind every later probe.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// exchange is one in-memory request's http.ResponseWriter, its
// http.Response and that response's Body, in a single allocation. The
// handler side (Header, WriteHeader, Write) is finished before the client
// side (Read, Close) starts, so the two never overlap.
//
// Only buf is pooled. FaultTransport closes the body and passes the same
// *http.Response on with another Body, and http.Client reads StatusCode
// and Header after that; recycling resp or its Header map would hand a
// live response to the next request.
type exchange struct {
	resp  http.Response
	hdr   http.Header // the handler's view; becomes resp.Header at WriteHeader
	buf   *[]byte     // pooled body bytes; nil once closed
	off   int         // read offset into *buf
	wrote bool
}

// Header implements http.ResponseWriter. After WriteHeader it returns a
// scratch map, so a late w.Header().Set cannot reach the response already
// described. A map the handler kept from before WriteHeader still can:
// covering that is the clone the recorder paid for on every request, and
// no handler here holds one.
func (e *exchange) Header() http.Header {
	if e.hdr == nil {
		e.hdr = make(http.Header)
	}
	return e.hdr
}

// WriteHeader implements http.ResponseWriter; the first call wins.
func (e *exchange) WriteHeader(code int) {
	if e.wrote {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	e.wrote = true
	e.resp.StatusCode = code
	e.resp.Status = statusLine(code)
	e.resp.Header = e.Header()
	e.hdr = nil
	e.resp.ContentLength = -1
	if cl := textproto.TrimString(e.resp.Header.Get("Content-Length")); cl != "" {
		if n, err := strconv.ParseUint(cl, 10, 63); err == nil {
			e.resp.ContentLength = int64(n)
		}
	}
}

// statusLine is the Status a net/http client reports for code. The three
// answers a campaign gets nearly every time are constants.
func statusLine(code int) string {
	switch code {
	case http.StatusOK:
		return "200 OK"
	case http.StatusForbidden:
		return "403 Forbidden"
	case http.StatusServiceUnavailable:
		return "503 Service Unavailable"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// implicitHeader is the 200 a first write implies, with the content type
// sniffed from that write when the handler named none, as net/http does.
func (e *exchange) implicitHeader(first []byte) {
	h := e.Header()
	if _, ok := h["Content-Type"]; !ok && h.Get("Transfer-Encoding") == "" {
		h.Set("Content-Type", http.DetectContentType(first))
	}
	e.WriteHeader(http.StatusOK)
}

// Write implements http.ResponseWriter.
func (e *exchange) Write(p []byte) (int, error) {
	if !e.wrote {
		e.implicitHeader(p)
	}
	*e.buf = append(*e.buf, p...)
	return len(p), nil
}

// WriteString implements io.StringWriter.
func (e *exchange) WriteString(s string) (int, error) {
	if !e.wrote {
		e.implicitHeader([]byte(s))
	}
	*e.buf = append(*e.buf, s...)
	return len(s), nil
}

// Read implements io.Reader over the written body.
func (e *exchange) Read(p []byte) (int, error) {
	if e.buf == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	if e.off >= len(*e.buf) {
		return 0, io.EOF
	}
	n := copy(p, (*e.buf)[e.off:])
	e.off += n
	return n, nil
}

// Close implements io.Closer: it returns the body buffer to the pool and
// may be called any number of times.
func (e *exchange) Close() error {
	if bp := e.buf; bp != nil {
		e.buf = nil
		if cap(*bp) <= maxPooledBody {
			*bp = (*bp)[:0]
			bodyPool.Put(bp)
		}
	}
	return nil
}
