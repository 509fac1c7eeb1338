package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Every connection limit of the serving http.Server is set: a zero would
// let one client hold a connection open for as long as it likes.
func TestServerLimits(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	for name, v := range map[string]int64{
		"ReadHeaderTimeout": int64(srv.ReadHeaderTimeout),
		"ReadTimeout":       int64(srv.ReadTimeout),
		"WriteTimeout":      int64(srv.WriteTimeout),
		"IdleTimeout":       int64(srv.IdleTimeout),
		"MaxHeaderBytes":    int64(srv.MaxHeaderBytes),
	} {
		if v <= 0 {
			t.Errorf("%s is not set", name)
		}
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Errorf("ReadTimeout %v is shorter than ReadHeaderTimeout %v", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
}

// -pprof serves http.DefaultServeMux, where the net/http/pprof import
// registers the profiles.
func TestPprofHandlers(t *testing.T) {
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/heap?debug=1", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "heap profile") {
		t.Fatalf("heap profile: %d %.80q", rec.Code, rec.Body.String())
	}
}
