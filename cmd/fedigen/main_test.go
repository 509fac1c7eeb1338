package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
)

// fedigen -config tiny writes the world gen.Generate makes: the file loads
// back to the same bytes, whatever -shards it was cut into.
func TestWritesGeneratedWorld(t *testing.T) {
	cfg, err := core.ConfigForScale(core.ScaleTiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := gen.Generate(cfg).Save(&want); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "w.fedi")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-config", "tiny", "-seed", "7", "-shards", "3", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	w, err := dataset.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := w.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("the written world loads to %d bytes that differ from gen.Generate's %d", got.Len(), want.Len())
	}
	if !strings.Contains(stdout.String(), "generated 200 instances / ") || !strings.HasSuffix(stdout.String(), core.Summary(w)) {
		t.Errorf("stdout is not the generation line and the world's summary:\n%s", stdout.String())
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
		{[]string{"-h"}, 0, "-shards"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-cpuprofile", filepath.Join(dir, "no", "cpu")}, 2, "fedigen: "},
		{[]string{"-config", "galactic"}, 2, "fedigen: core: unknown scale"},
		{[]string{"-config", "tiny", "-out", filepath.Join(dir, "no", "w.fedi")}, 1, "fedigen: "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("fedigen %v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}
