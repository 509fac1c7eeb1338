package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"regexp"
	"runtime"
	"sort"
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
// moved. The world file is held one section at a time (worldSections), so
// a world that moved names the section that moved. A change that means to
// alter the world updates goldenWorld; one that means to alter the report
// runs this test with -update and updates bench/pipeline.go's goldenReport,
// which TestGoldenReportPinsBench holds to the file's hash.
var goldenWorld = sectionSums{
	"header":           "cedf836e74630d98b9bb5c49d0220ad552bd03e2d45616255cc9bcfb71759e21",
	"ASes":             "071fca1fc11b02759e369aa60de4c3ed249629e63ee04d4d62c4688690e27cf0",
	"instances":        "770f787338bff0aa99d4d44d786908c4a84b2f6c9af79c49a3957122100cf4e5",
	"users":            "8cccc7211d769f37dbdccfe85af2d6b0733f4a57613aeb2b72464923895b8858",
	"social graph":     "0c0bfd99714628f684b15815a54432698291a49f2fe2db9835d7715305efe852",
	"federation graph": "a14ae30782bedac3e4bb12c55adf9cca8875af3dd52e9356cdc54eaee205b172",
	"traces":           "2917264ebdfb6f12fb797ad56e35a95925689d5c31b775d20409ce48fe597b57",
	"cert outages":     "5fb9513cc03a9bc0223762ebef7064a96ddd5f6d2338619112e7b2fabc993a61",
}

const goldenReportFile = "testdata/golden_report.txt"

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
		goldenWorld.check(t, fmt.Sprintf("shards=%d: world file", shards), file.Bytes())

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
var goldenRebuilt = sectionSums{
	"header":           "9be55c3a65f51b0d81cc47a59100deec9d1fe574b8e61aa46342b160196fe9b2",
	"ASes":             "27c481628200c5ed2467af54a9a4128daede2cd8afe1acc2670a104645381067",
	"instances":        "824a9c21390d0d9106e9b68df5884fbadd86287b93dc67e781f708c95e2cd500",
	"users":            "d45f519c53b7595fe708f28adeda1ab271f57825bfd3df42fb18142bf693e0be",
	"social graph":     "d2bb08f87950a62635d08e3ff85d4147cfa1d1f34d8b10901c5f4c0b70664cd0",
	"federation graph": "96e85c8e66259fc6f2f22aee7d4bbc3f59752f24904b7ad4f43a5f16573bae43",
	"traces":           "1cb94553830fbf96223dabf7f41784c37d83dded140ef8ed8d1b1ac0ca97bd48",
	"cert outages":     "", // none: a rebuilt world records no certificate outages
}

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
		goldenRebuilt.check(t, fmt.Sprintf("GOMAXPROCS=%d: rebuilt world", procs), file.Bytes())
	}
}

// sectionSums is the SHA-256 of each part of a world file, by part name.
type sectionSums map[string]string

// worldSections splits a world file on its framing — the four magic bytes
// and a uvarint version, then sections of [tag][uvarint length][payload] —
// and hashes each part: the preamble and the closing section count belong
// to the header, a graph's sections to the graph their first payload byte
// names, and the trace head to the traces. The tags are dataset's
// (columnar.go).
func worldSections(file []byte) (sectionSums, error) {
	names := map[byte]string{1: "header", 2: "ASes", 3: "instances", 4: "users", 7: "traces", 8: "traces", 9: "cert outages", 0xFF: "header"}
	graphs := []string{"social graph", "federation graph"}
	if len(file) < 5 {
		return nil, fmt.Errorf("%d bytes: no preamble", len(file))
	}
	_, k := binary.Uvarint(file[4:])
	if k <= 0 {
		return nil, fmt.Errorf("no version after the magic")
	}
	hashes := map[string]hash.Hash{"header": sha256.New()}
	hashes["header"].Write(file[:4+k])
	for off := 4 + k; off < len(file); {
		tag := file[off]
		n, k := binary.Uvarint(file[off+1:])
		end := off + 1 + k + int(n)
		if k <= 0 || n > uint64(len(file)) || end > len(file) {
			return nil, fmt.Errorf("section at byte %d is cut short", off)
		}
		name := names[tag]
		if tag == 5 || tag == 6 { // a graph's head and rows: the graph id leads the payload
			if n == 0 || int(file[off+1+k]) >= len(graphs) {
				return nil, fmt.Errorf("graph section at byte %d names no graph", off)
			}
			name = graphs[file[off+1+k]]
		}
		if name == "" {
			return nil, fmt.Errorf("unknown section tag %d at byte %d", tag, off)
		}
		if hashes[name] == nil {
			hashes[name] = sha256.New()
		}
		hashes[name].Write(file[off:end])
		off = end
	}
	sums := sectionSums{}
	for name, h := range hashes {
		sums[name] = hex.EncodeToString(h.Sum(nil))
	}
	return sums, nil
}

// check holds file's sections to want, naming every section that moved,
// appeared or went missing.
func (want sectionSums) check(t *testing.T, what string, file []byte) {
	t.Helper()
	got, err := worldSections(file)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	names := make([]string, 0, len(want)+len(got))
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: section %q hashes to %q, want %q", what, name, got[name], want[name])
		}
	}
}
