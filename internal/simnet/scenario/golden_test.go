package scenario

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<name>.json with this tree's reports")

// TestScenarioReportsGolden runs all seven scenarios at their default seeds
// under GOMAXPROCS 1 and 4 and compares each report's Encode bytes — what
// `fediscenario -out d` writes — with testdata/<name>.json: the reports are
// byte-reproducible across core counts, not just run over run. A refactor
// of the engine or a scenario must leave all seven unchanged; a deliberate
// behaviour change runs this test with -update in the PR that makes it,
// and says so.
func TestScenarioReportsGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(Names()) && !*update {
		t.Fatalf("%d pinned reports for %d scenarios", len(files), len(Names()))
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, name := range Names() {
				sc, err := ByName(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sc.Run(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := rep.Encode()
				if err != nil {
					t.Fatal(err)
				}
				file := filepath.Join("testdata", name+".json")
				if *update && procs == 1 {
					if err := os.WriteFile(file, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				if diff := firstDiff(want, got); diff != "" {
					t.Errorf("%s: the report differs from %s:\n%s", name, file, diff)
				}
			}
		})
	}
}

// firstDiff shows where got first departs from want, line by line: three
// lines of context, the differing run of lines of each side (at most ten),
// and three lines of got after it. It is "" when the two are equal. (Root
// golden_test.go holds the same function for the paper report.)
func firstDiff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	k := 0
	for k < len(w) && k < len(g) && w[k] == g[k] {
		k++
	}
	end := k // past the run of differing lines, at most ten
	for end < k+10 && end < max(len(w), len(g)) && (end >= min(len(w), len(g)) || w[end] != g[end]) {
		end++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d\n", k+1)
	for _, l := range w[max(0, k-3):k] {
		fmt.Fprintf(&b, "    %s\n", l)
	}
	for _, l := range w[k:min(end, len(w))] {
		fmt.Fprintf(&b, "  - %s\n", l)
	}
	for _, l := range g[k:min(end, len(g))] {
		fmt.Fprintf(&b, "  + %s\n", l)
	}
	for _, l := range g[min(end, len(g)):min(end+3, len(g))] {
		fmt.Fprintf(&b, "    %s\n", l)
	}
	return b.String()
}
