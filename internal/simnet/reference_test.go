package simnet

import (
	"net/http"
	"net/http/httptest"
)

// recorderTransport is the transport MemoryTransport used to be: every
// request gets an httptest.ResponseRecorder and the response is its
// Result(). It stays as the specification TestMemoryTransportMatchesRecorder
// holds the pooled exchange against.
type recorderTransport struct {
	Handler http.Handler
}

func (t *recorderTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	t.Handler.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
