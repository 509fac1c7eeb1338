package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/instance"
)

// reportKeys are the JSON report's latency and throughput fields.
var reportKeys = []string{"seed", "target_rate_rps", "requests", "status_2xx", "status_304", "status_other",
	"errors", "duration_sec", "throughput_rps", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms"}

func checkReport(t *testing.T, raw []byte) {
	t.Helper()
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("the report is not JSON: %v\n%s", err, raw)
	}
	for _, k := range reportKeys {
		if _, ok := rep[k]; !ok {
			t.Errorf("the report is missing %q", k)
		}
	}
	for _, k := range []string{"requests", "status_2xx"} {
		if n, _ := rep[k].(float64); n <= 0 {
			t.Errorf("the report counts %v %s, want > 0:\n%s", rep[k], k, raw)
		}
	}
}

// TestSelfServe is the serving path end to end: fediload serves the tiny
// world on a loopback listener and drives a short open-loop run at it. The
// JSON report carries every latency and throughput key, and some requests
// succeeded.
func TestSelfServe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "tiny", "-seed", "1", "-rate", "500", "-duration", "2s", "-json", path}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "fediload: self-serving 200 instances on http://127.0.0.1:") {
		t.Errorf("no self-serving line on stderr: %q", stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, raw)
}

// With -target fediload drives a server it did not start, and -json -
// gives stdout to the report alone.
func TestTargetJSONToStdout(t *testing.T) {
	w, err := core.LoadOrBuild("", core.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, wait, err := instance.ServeWorld(ctx, ln, w, instance.LoadOptions{})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	defer func() {
		cancel()
		wait()
	}()

	var stdout, stderr bytes.Buffer
	args := []string{"-target", "http://" + ln.Addr().String(), "-count", "200", "-rate", "2000", "-json", "-"}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	checkReport(t, stdout.Bytes())
	if !strings.Contains(stderr.String(), "requests 200 ") {
		t.Errorf("the human summary is not on stderr: %q", stderr.String())
	}
}

// A bad invocation exits non-zero and says why on stderr; -h prints the
// flags and exits 0.
func TestBadInvocation(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
		want string // on stderr
	}{
		{[]string{"-h"}, 0, "-max-toots"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-cpuprofile", filepath.Join(dir, "no", "cpu")}, 2, "fediload: "},
		{[]string{"-scale", "galactic"}, 1, "fediload: core: unknown scale"},
		{[]string{"-world", filepath.Join(dir, "missing.fedi")}, 1, "fediload: "},
		{[]string{"-rate", "0"}, 1, "fediload: "},
		{[]string{"-count", "5", "-json", filepath.Join(dir, "no", "report.json")}, 1, "fediload: "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("fediload %v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}
