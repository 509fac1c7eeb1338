package profile

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// parse runs Parse on a fresh flag set named cmd and returns its stderr.
func parse(args ...string) (stop func(), code int, stderr string) {
	var buf bytes.Buffer
	stop, code = Parse(flag.NewFlagSet("cmd", flag.ContinueOnError), args, &buf)
	return stop, code, buf.String()
}

// TestStartWritesEachFile: every flag that is set leaves its file, written
// by the time stop returns.
func TestStartWritesEachFile(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "cpu"), filepath.Join(dir, "mem"), filepath.Join(dir, "trace")}
	stop, code, stderr := parse("-cpuprofile", paths[0], "-memprofile", paths[1], "-trace", paths[2])
	if stop == nil {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	stop()
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, %v", filepath.Base(p), st, err)
		}
	}
	stop, code, stderr = parse()
	if stop == nil {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	stop()
}

// TestStartFailureLeavesNothingRunning: a trace file that cannot be made
// stops the command with exit 2, a reason after its name, and the CPU
// profile it had begun stopped.
func TestStartFailureLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	stop, code, stderr := parse("-cpuprofile", filepath.Join(dir, "cpu"), "-trace", filepath.Join(dir, "no", "trace"))
	if stop != nil || code != 2 || !strings.HasPrefix(stderr, "cmd: ") {
		t.Fatalf("a trace file in a missing directory: stop %v, exit %d, stderr %q", stop != nil, code, stderr)
	}
	f, err := os.Create(filepath.Join(dir, "again"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatalf("the CPU profile is still running: %v", err)
	}
	pprof.StopCPUProfile()
}

// -h lists the flags and exits 0; a bad flag exits 2. Neither starts a
// profile.
func TestParseStops(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		code int
		want string
	}{
		{"-h", 0, "-cpuprofile"},
		{"-no-such-flag", 2, "flag provided but not defined"},
	} {
		stop, code, stderr := parse(tc.arg)
		if stop != nil || code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stop %v, exit %d, stderr %q; want exit %d and %q", tc.arg, stop != nil, code, stderr, tc.code, tc.want)
		}
	}
}
