package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/instance"
)

// The tiny world at seed 5, as the crawl sees it from fediserve.
const (
	wantToots = "11313 toots from 1192 authors"
	wantEdges = "10040 edges over 2386 accounts"
)

// breakerGolden is the -breaker-stats table a full crawl of that world
// prints: the 40 offline instances, each failed three times by the monitor
// round and three times by the toot crawl, none of them opened.
const breakerGolden = "testdata/breaker_stats.txt"

// serveTinyWorld writes the tiny world at seed 5 the way fedigen writes
// it, serves what loads back through instance.ServeWorld with fediserve's
// defaults on a loopback port, and returns the base URL and the world file.
func serveTinyWorld(t *testing.T) (base, worldFile string) {
	t.Helper()
	cfg, err := core.ConfigForScale(core.ScaleTiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	worldFile = filepath.Join(t.TempDir(), "w.fedi")
	if err := gen.Generate(cfg).SaveFile(worldFile); err != nil {
		t.Fatal(err)
	}
	w, err := dataset.LoadFile(worldFile)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, wait, err := instance.ServeWorld(ctx, ln, w, instance.LoadOptions{MaxTootsPerUser: 10, OfflineGone: true})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		if err := wait(); err != nil {
			t.Errorf("serving the tiny world: %v", err)
		}
	})
	return "http://" + ln.Addr().String(), worldFile
}

// crawl runs fedicrawl against base with the world's domain list, at a
// per-host rate it never waits at, and returns its stdout; a non-zero exit
// fails the test.
func crawl(t *testing.T, base, worldFile string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-base", base, "-world", worldFile, "-rate", "1e9"}, args...)
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("fedicrawl %s: exit %d\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func breakerTable(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "breaker: ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestCrawlLoop is the live crawl loop over real sockets: the tiny world
// served on a loopback port is crawled at one worker and at four, side by
// side. Both crawls report the same toots and follows and the same breaker
// table, their high-water marks are byte-equal, and a delta crawl over the
// marks finds nothing new on the quiescent server.
func TestCrawlLoop(t *testing.T) {
	base, worldFile := serveTinyWorld(t)
	golden, err := os.ReadFile(breakerGolden)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	marks := func(workers string) string { return filepath.Join(dir, "workers-"+workers+".json") }

	t.Run("crawls", func(t *testing.T) {
		for _, workers := range []string{"1", "4"} {
			t.Run("workers="+workers, func(t *testing.T) {
				t.Parallel()
				out := crawl(t, base, worldFile, "-workers", workers, "-write-since", marks(workers), "-breaker-stats")
				for _, want := range []string{wantToots, wantEdges} {
					if !strings.Contains(out, want) {
						t.Errorf("the crawl did not print %q:\n%s", want, out)
					}
				}
				if got := breakerTable(out); got != string(golden) {
					t.Errorf("the -breaker-stats table differs from %s:\n%s", breakerGolden, got)
				}
				if workers == "4" {
					// The delta crawl runs while the 1-worker crawl is
					// still going; it takes as long as the 4-worker one.
					out := crawl(t, base, worldFile, "-workers", "4", "-followers=false", "-since", marks(workers))
					if !strings.Contains(out, "): 0 toots from") {
						t.Errorf("the delta crawl over the marks found toots:\n%s", out)
					}
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	one, err := os.ReadFile(marks("1"))
	if err != nil {
		t.Fatal(err)
	}
	four, err := os.ReadFile(marks("4"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, four) {
		t.Errorf("the 1-worker and 4-worker crawls wrote different high-water marks:\n%s\n%s", one, four)
	}
}

// A deadline that has passed before the crawl starts cuts it short: exit 1,
// with the phase named on stderr.
func TestCrawlCutShort(t *testing.T) {
	base, _ := serveTinyWorld(t)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-base", base, "-seeds", "instance-0000.fedi.test", "-timeout", "1ns"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "cut the discovery short") {
		t.Fatalf("exit %d, stderr %q; want 1 and the discovery named", code, stderr.String())
	}
}

// A bad invocation exits 2 with a one-line reason and starts no crawl; -h
// prints the flags and exits 0.
func TestBadInvocation(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
		want string // on stderr
	}{
		{[]string{"-h"}, 0, "-breaker-stats"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-rate", "0", "-world", "w.fedi"}, 2, "fedicrawl: -rate must be"},
		{[]string{"-rate", "-5", "-world", "w.fedi"}, 2, "fedicrawl: -rate must be"},
		{[]string{"-cpuprofile", filepath.Join(dir, "no", "cpu")}, 2, "fedicrawl: "},
		{[]string{"-since", filepath.Join(dir, "missing.json")}, 2, "fedicrawl: "},
		{[]string{"-world", filepath.Join(dir, "missing.fedi")}, 2, "fedicrawl: "},
		{nil, 2, "fedicrawl: need -seeds or -world"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("fedicrawl %v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if strings.HasPrefix(tc.want, "fedicrawl: -rate") && strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("fedicrawl %v: stderr is not one line: %q", tc.args, stderr.String())
		}
	}
}
