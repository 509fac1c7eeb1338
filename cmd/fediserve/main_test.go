package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// -pprof serves http.DefaultServeMux, where the net/http/pprof import
// registers the profiles.
func TestPprofHandlers(t *testing.T) {
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/heap?debug=1", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "heap profile") {
		t.Fatalf("heap profile: %d %.80q", rec.Code, rec.Body.String())
	}
}

var (
	pprofLine = regexp.MustCompile(`^pprof on (http://\S+/debug/pprof/)$`)
	hintLine  = regexp.MustCompile(`^try: curl -H 'Host: ([^']+)' '([^']+)'$`)
)

func get(t *testing.T, url, host string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = host
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s (Host %q): %s %v", url, host, resp.Status, err)
	}
	return string(body)
}

// TestServe runs fediserve on a loopback port until its context ends. The
// curl hint it prints is a working request, -pprof serves the profiles, and
// cancelling the context shuts it down with exit 0.
func TestServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-scale", "tiny", "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, pw, &stderr)
		pw.Close()
	}()

	lines := bufio.NewScanner(pr)
	var pprofURL, host, hintURL string
	for hintURL == "" && lines.Scan() {
		if m := pprofLine.FindStringSubmatch(lines.Text()); m != nil {
			pprofURL = m[1]
		}
		if m := hintLine.FindStringSubmatch(lines.Text()); m != nil {
			host, hintURL = m[1], m[2]
		}
	}
	go io.Copy(io.Discard, pr)
	if hintURL == "" || pprofURL == "" {
		cancel()
		t.Fatalf("no pprof or curl hint line before exit %d; stderr %q", <-done, stderr.String())
	}

	if body := get(t, hintURL, host); !strings.Contains(body, `"uri":"`+host+`"`) {
		t.Errorf("the hint's instance API does not describe %s: %.200s", host, body)
	}
	if body := get(t, pprofURL+"heap?debug=1", ""); !strings.Contains(body, "heap profile") {
		t.Errorf("-pprof does not serve the heap profile: %.80q", body)
	}

	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit %d after the context ended; stderr %q", code, stderr.String())
	}
}

// A bad invocation exits with the code the package doc promises and says
// why on stderr; -h prints the flags and exits 0.
func TestBadInvocation(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
		want string // on stderr
	}{
		{[]string{"-h"}, 0, "-offline-gone"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-cpuprofile", filepath.Join(dir, "no", "cpu")}, 2, "fediserve: "},
		{[]string{"-scale", "galactic"}, 2, "fediserve: core: unknown scale"},
		{[]string{"-world", filepath.Join(dir, "missing.fedi")}, 2, "fediserve: "},
		{[]string{"-addr", "127.0.0.1:99999"}, 1, "fediserve: "},
		{[]string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:99999"}, 1, "fediserve: "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("fediserve %v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}
