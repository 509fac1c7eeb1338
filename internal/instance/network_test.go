package instance

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
)

// Every connection limit of the serving http.Server is set: a zero would
// let one client hold a connection open for as long as it likes.
func TestServerLimits(t *testing.T) {
	srv := httpServer(http.NotFoundHandler())
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

// ServeWorld serves the loaded world on the caller's listener, routed by
// Host, until its context ends; then wait reports a clean stop and the
// listener is closed.
func TestServeWorld(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n, wait, err := ServeWorld(ctx, ln, microWorld(), LoadOptions{OfflineGone: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Domains()); got != 2 {
		t.Fatalf("%d domains served, want 2", got)
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+ln.Addr().String()+"/api/v1/instance", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = "a.test"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/instance on a.test: %s", resp.Status)
	}

	cancel()
	if err := wait(); err != nil {
		t.Fatalf("wait after cancel: %v", err)
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("the listener still accepts after shutdown")
	}
}

// A world that does not load leaves nothing listening.
func TestServeWorldLoadFailureClosesListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := microWorld()
	w.Instances[1].Domain = w.Instances[0].Domain
	if _, _, err := ServeWorld(context.Background(), ln, w, LoadOptions{}); err == nil {
		t.Fatal("a world with a repeated domain served")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept on the listener after a failed load: %v, want net.ErrClosed", err)
	}
}
