package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite "+goldenReportFile+" with this tree's report")

// The bytes of the benchmark's paper-pipeline world at seed 1 (SmallConfig
// with 500 instances and 20,000 users) and of core.RunAll's report over it,
// kept as text in goldenReportFile. This test is where a slip in the
// generator, the world file or an experiment shows up in seconds rather
// than in the benchmark gate, and a report that moved shows the lines that
// moved. A change that means to alter the world updates goldenWorld; one
// that means to alter the report runs this test with -update and updates
// bench/pipeline.go's goldenReport, which TestGoldenReportPinsBench holds
// to the file's hash.
const (
	goldenWorld      = "2f7c2f300f6231e36473c4c6b87518fb9a3394e9ccdf87576a95b1dcadbe325a"
	goldenReportFile = "testdata/golden_report.txt"
)

func TestGoldenWorldAndReport(t *testing.T) {
	want, err := os.ReadFile(goldenReportFile)
	if err != nil && !*update {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		cfg := gen.SmallConfig(1)
		cfg.Instances, cfg.Users, cfg.Shards = 500, 20000, shards

		var file bytes.Buffer
		if err := gen.Generate(cfg).Save(&file); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(file.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenWorld {
			t.Errorf("shards=%d: world file hashes to %s, want %s", shards, got, goldenWorld)
		}

		w, err := dataset.Load(&file)
		if err != nil {
			t.Fatal(err)
		}
		var report bytes.Buffer
		if err := core.RunAll(w, &report); err != nil {
			t.Fatal(err)
		}
		if *update && shards == 1 {
			if err := os.WriteFile(goldenReportFile, report.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			want = report.Bytes()
		}
		if diff := firstDiff(want, report.Bytes()); diff != "" {
			t.Errorf("shards=%d: the report differs from %s:\n%s", shards, goldenReportFile, diff)
		}
	}
}

// firstDiff shows where got first departs from want, line by line: three
// lines of context, the differing run of lines of each side (at most ten),
// and three lines of got after it. It is "" when the two are equal.
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

// TestGoldenReportPinsBench: the benchmark, a module of its own, checks
// each paper-pipeline pass against a hash of the report, which must be the
// hash of goldenReportFile, or the two goldens drift apart.
func TestGoldenReportPinsBench(t *testing.T) {
	src, err := os.ReadFile("bench/pipeline.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^const goldenReport = "([0-9a-f]{64})"$`).FindSubmatch(src)
	if m == nil {
		t.Fatal("bench/pipeline.go declares no goldenReport hash")
	}
	report, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(report)
	if got := hex.EncodeToString(sum[:]); got != string(m[1]) {
		t.Fatalf("%s hashes to %s; bench/pipeline.go's goldenReport is %s", goldenReportFile, got, m[1])
	}
}

// goldenRebuilt is the file of the world simnet.Rebuild makes of a short
// campaign over gen.TinyConfig(1): twelve probe rounds from day 2, three
// toots a user, two workers a phase. The benchmark's campaign check
// compares Rebuild with ExpectedWorld, and both end in dataset.Assemble, so
// a slip there moves both sides alike and passes; this hash was taken from
// the commit before Assemble sorted ids instead of names, and does not move
// with it. Which worker serves which request depends on the scheduler; the
// bytes must not.
const goldenRebuilt = "f3cd8bcafcedb6235a4e523c3508ee21c629ba403d2b38264c9d78839abfccbb"

func TestGoldenRebuiltWorld(t *testing.T) {
	w := gen.Generate(gen.TinyConfig(1))
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		h, err := simnet.New(context.Background(), w, simnet.Options{
			MaxTootsPerUser: 3, Retries: 2, Backoff: 50 * time.Millisecond,
		})
		var res *simnet.CampaignResult
		if err == nil {
			res, err = h.RunCampaign(context.Background(), simnet.CampaignConfig{
				StartSlot: 2 * dataset.SlotsPerDay, Slots: 12,
				ProbeWorkers: 2, CrawlWorkers: 2, ScrapeWorkers: 2,
			})
		}
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, _ := simnet.Rebuild(res)
		var file bytes.Buffer
		if err := rebuilt.Save(&file); err != nil {
			t.Fatal(err)
		}
		if len(rebuilt.Users) == 0 || rebuilt.Social.NumEdges() == 0 {
			t.Fatalf("GOMAXPROCS=%d: the campaign recovered %d users and %d follows", procs, len(rebuilt.Users), rebuilt.Social.NumEdges())
		}
		sum := sha256.Sum256(file.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenRebuilt {
			t.Errorf("GOMAXPROCS=%d: rebuilt world hashes to %s, want %s", procs, got, goldenRebuilt)
		}
	}
}
