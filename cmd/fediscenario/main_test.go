package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simnet/scenario"
)

// -list prints every scenario with its title, in name order.
func TestList(t *testing.T) {
	var want strings.Builder
	for _, name := range scenario.Names() {
		sc, err := scenario.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "%-20s %s\n", name, sc.Title)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 || stdout.String() != want.String() {
		t.Errorf("-list: exit %d, printed\n%s\nwant\n%s", code, stdout.String(), want.String())
	}
}

// -run with -out writes the scenario's report, byte-equal to the one
// internal/simnet/scenario pins, and names the file on stdout; without -out
// the report goes to stdout.
func TestRunWritesPinnedReport(t *testing.T) {
	const name = "fleet-worker-death"
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "simnet", "scenario", "testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "reports")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-run", name, "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	path := filepath.Join(dir, name+".json")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the pinned report", path)
	}
	if !strings.HasPrefix(stdout.String(), name) || !strings.HasSuffix(stdout.String(), "-> "+path+"\n") {
		t.Errorf("stdout does not name the report: %q", stdout.String())
	}

	stdout.Reset()
	if code := run(context.Background(), []string{"-run", name}, &stdout, &stderr); code != 0 || !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-run %s without -out: exit %d, stdout is not the pinned report", name, code)
	}
}

// A bad invocation exits 2 and says why on stderr; -h prints the flags and
// exits 0.
func TestBadInvocation(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string // on stderr
	}{
		{[]string{"-h"}, 0, "-out"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-cpuprofile", filepath.Join(dir, "no", "cpu")}, 2, "fediscenario: "},
		{[]string{"-run", "no-such-scenario"}, 2, "fediscenario: scenario: unknown scenario"},
		{[]string{"-run", "fleet-worker-death", "-out", filepath.Join(file, "reports")}, 2, "fediscenario: "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("fediscenario %v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}
