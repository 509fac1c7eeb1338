package instance

import (
	"io"
	"net"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var dateLine = regexp.MustCompile(`Date: [^\r]*\r\n`)

// rawGet sends one HTTP/1.1 request over a fresh connection and returns
// every byte the server answered, the Date value masked.
func rawGet(t *testing.T, addr, host, path string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET "+path+" HTTP/1.1\r\nHost: "+host+"\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return dateLine.ReplaceAllString(string(b), "Date: -\r\n")
}

// TestRefusalWireBytes pins what a refused request looks like on a real
// socket, byte for byte, to what http.Error and http.NotFound put there
// before refuse replaced them: status line, header set and order, body.
func TestRefusalWireBytes(t *testing.T) {
	n := NewNetwork()
	n.Add(Config{Domain: "up.test", Open: true})
	n.Add(Config{Domain: "blocked.test", Open: true, BlocksCrawl: true})
	n.Add(Config{Domain: "down.test", Open: true}).SetOnline(false)
	ts := httptest.NewServer(n)
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	wire := func(status, body string) string {
		return "HTTP/1.1 " + status + "\r\n" +
			"Content-Type: text/plain; charset=utf-8\r\n" +
			"X-Content-Type-Options: nosniff\r\n" +
			"Date: -\r\n" +
			"Content-Length: " + strconv.Itoa(len(body)) + "\r\n" +
			"Connection: close\r\n\r\n" + body
	}
	for _, tc := range []struct{ host, path, want string }{
		{"down.test", "/api/v1/instance", wire("503 Service Unavailable", "instance unavailable\n")},
		{"blocked.test", "/api/v1/timelines/public", wire("403 Forbidden", "timeline crawling is not allowed on this instance\n")},
		{"up.test", "/api/v2/everything", wire("404 Not Found", "404 page not found\n")},
		{"up.test", "/users/nobody/followers", wire("404 Not Found", "404 page not found\n")},
		{"up.test", "/api/v1/timelines/public?max_id=x", wire("400 Bad Request", "bad max_id\n")},
		{"up.test", "/users/a/followers?page=0", wire("400 Bad Request", "bad page\n")},
		{"nowhere.test", "/", wire("502 Bad Gateway", "no such instance: \"nowhere.test\"\n")},
	} {
		if got := rawGet(t, addr, tc.host, tc.path); got != tc.want {
			t.Errorf("%s%s:\n got %q\nwant %q", tc.host, tc.path, got, tc.want)
		}
	}
}
