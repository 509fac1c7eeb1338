package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture runs the analysis over testdata/fixture with one keep list per
// case and holds the lines it prints, in order, to the fragments wanted.
func TestFixture(t *testing.T) {
	unset := "field p/p.go:20 p.T.Unset"
	testOnly := "field p/p.go:21 p.T.TestOnly"
	defaulted := "field p/p.go:22 p.T.Defaulted"
	zeroed := "field p/p.go:23 p.T.Zeroed"
	writeOnly := "unread p/p.go:26 p.T.WriteOnly"
	defaultOnly := "unread p/p.go:27 p.T.DefaultOnly"
	clientGet := "1 p/p.go:75 p.Client.Get"
	dead := "1 p/p.go:84 p.Dead"
	for _, tc := range []struct {
		name string
		keep string
		want []string
	}{
		// Keyed and unkeyed literals, =, op=, ++, &x.F, an index and a
		// slice of x.F, and a pointer-receiver call each write a field; a
		// write that only a test makes does not, nor does a constant
		// default for a zero value. A field written and never read is
		// unread, and so is one only a default's condition looks at; ==
		// reads every field of what it compares (p.V).
		{"nothing kept", "", []string{unset, testOnly, defaulted, zeroed, writeOnly, defaultOnly, clientGet, dead}},
		{"citations reach", `
p.T.TestOnly — TestSetsTestOnly, a field only the test writes
p.T.WriteOnly — TestReadsWriteOnly, a field only the test reads
p.Client.Get — TestClientGet, a method only the test calls
p.Dead — TestDead, called from the external test package
`, []string{unset, defaulted, zeroed, defaultOnly}},
		{"citations do not reach", `
p.T.TestOnly — TestReadsTestOnly, reads the field but never writes it
p.T.WriteOnly — TestSetsTestOnly, reads another field
p.Client.Get — TestOtherGet, calls a method of the same name on another type
p.Dead — TestOtherGet, calls something else
`, []string{unset, defaulted, zeroed, defaultOnly,
			"p.Client.Get cites TestOtherGet, which does not reach it",
			"p.Dead cites TestOtherGet, which does not reach it",
			"p.T.TestOnly cites TestReadsTestOnly, which does not write it",
			"p.T.WriteOnly cites TestSetsTestOnly, which does not read it"}},
		{"stale and missing", `
p.T.Keyed — TestSetsTestOnly, the binary writes it
p.Dead — TestMissing, no such test
`, []string{unset, testOnly, defaulted, zeroed, writeOnly, defaultOnly, clientGet,
			"p.Dead wants \"TestName, what it is used for\" with a test that exists",
			"p.T.Keyed is reachable, written or read again, or gone"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keep := filepath.Join(t.TempDir(), "keep.txt")
			if err := os.WriteFile(keep, []byte(tc.keep), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err := run("testdata/fixture", keep, &out, io.Discard)
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if err == nil || len(lines) != len(tc.want) {
				t.Fatalf("err %v, printed:\n%s\nwant %d lines", err, out.String(), len(tc.want))
			}
			for i, want := range tc.want {
				if !strings.Contains(lines[i], want) {
					t.Errorf("line %d is %q, want it to hold %q", i, lines[i], want)
				}
			}
		})
	}
}
