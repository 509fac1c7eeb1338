package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// reused is the one fetch every newGet call builds on, so that
// TestRequestMatchesNewRequest and FuzzRequestURL hold to
// http.NewRequestWithContext each request as it comes out of a fetch the
// call before filled — plain or not, with another context.
var reused = fetchPool.New().(*fetch)

// newGet is the request getOnce sends for base+path.
func newGet(ctx context.Context, base, path string) (*http.Request, error) {
	return reused.get(ctx, base, path)
}

// seen is what a transport saw of one request.
type seen struct {
	ua, uri string
	headers int
	ctx     context.Context
}

// seeing is a transport that calls itself, on the requesting goroutine,
// with what it saw of each request and answers it with an empty 200.
type seeing func(seen)

func (s seeing) RoundTrip(req *http.Request) (*http.Response, error) {
	s(seen{ua: req.Header.Get("User-Agent"), uri: req.Host + req.URL.RequestURI(), headers: len(req.Header), ctx: req.Context()})
	return httptest.NewRecorder().Result(), nil
}

type ctxKey struct{}

// unhashable is a context whose type is not comparable: == on two of them
// panics.
type unhashable struct {
	context.Context
	tags []string
}

// TestRequestReuseCarriesNothingOver: a request that getOnce refills keeps
// nothing from the fetch before it — no header, no URL, no context — and
// crawl workers that share the pool share no request.
func TestRequestReuseCarriesNothingOver(t *testing.T) {
	var last seen
	rt := seeing(func(s seen) { last = s })
	with := &Client{HTTP: &http.Client{Transport: rt}, UserAgent: "fedi-crawler/1"}
	without := &Client{HTTP: &http.Client{Transport: rt}}
	get := func(c *Client, ctx context.Context, domain, path string) {
		t.Helper()
		if _, err := c.GetChecked(ctx, domain, path, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	bg := context.Background()
	// Enough rounds that the pool hands one fetch back many times over,
	// even under the race detector, which drops some of what is put back.
	for i := 0; i < 20; i++ {
		get(with, bg, "a.test", "/api/v1/instance")
		if last.ua != "fedi-crawler/1" || last.uri != "a.test/api/v1/instance" || last.headers != 1 {
			t.Fatalf("round %d: the first fetch sent %+v", i, last)
		}
		get(without, bg, "b.test", fmt.Sprintf("/users/u%d/followers?page=2", i))
		if last.ua != "" || last.headers != 0 || last.uri != fmt.Sprintf("b.test/users/u%d/followers?page=2", i) {
			t.Fatalf("round %d: the second fetch sent %+v", i, last)
		}
		// A path that is not plain takes NewRequestWithContext's request.
		get(without, bg, "c.test", "/a%41?b")
		if last.ua != "" || last.uri != "c.test/a%41?b" {
			t.Fatalf("round %d: the unparsed fetch sent %+v", i, last)
		}
	}

	// A new context between fetches reaches the transport.
	for i := 0; i < 20; i++ {
		ctx := context.WithValue(bg, ctxKey{}, i)
		get(without, ctx, "a.test", "/")
		if last.ctx != ctx {
			t.Fatalf("round %d: the transport saw context %v, not the fetch's", i, last.ctx)
		}
		get(without, ctx, "a.test", "/")
		if last.ctx != ctx {
			t.Fatalf("round %d: the second fetch on a context carried %v", i, last.ctx)
		}
	}

	// A context of a type == refuses must neither panic nor be lost.
	for i := 0; i < 20; i++ {
		get(without, unhashable{context.WithValue(bg, ctxKey{}, i), nil}, "a.test", "/")
		if got := last.ctx.Value(ctxKey{}); got != i {
			t.Fatalf("round %d: the transport saw the context of round %v", i, got)
		}
	}

	// A fetch bound to a context still refuses a nil one.
	f := fetchPool.New().(*fetch)
	if _, err := f.getHost(bg, "a.test", "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.getHost(nil, "a.test", "/"); err == nil {
		t.Fatal("a nil context was accepted")
	}

	// Workers that share the pool each see their own request.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ua := fmt.Sprintf("worker-%d", w)
			c := &Client{UserAgent: ua, HTTP: &http.Client{Transport: seeing(func(s seen) {
				if want := fmt.Sprintf("w%d.test/%s", w, ua); s.ua != ua || s.uri != want || s.ctx.Value(ctxKey{}) != w {
					t.Errorf("worker %d sent %+v, want %s", w, s, want)
				}
			})}}
			ctx := context.WithValue(bg, ctxKey{}, w)
			for i := 0; i < 50; i++ {
				if _, err := c.GetChecked(ctx, fmt.Sprintf("w%d.test", w), "/"+ua, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
