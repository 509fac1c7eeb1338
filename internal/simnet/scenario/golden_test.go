package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// goldenReports pins the SHA-256 of every default-seed report's Encode
// bytes — what `fediscenario -out d` writes. A refactor of the engine or a
// scenario must leave all seven unchanged; a deliberate behaviour change
// re-pins them in the PR that makes it, and says so.
var goldenReports = map[string]string{
	"chaos-storm":         "07cd007fc034a1b94c2f6167ef9e24d30f0a3492cef967522430a9242f7e37e6",
	"churn-during-crawl":  "e74b9279791fe44994268a82d02092ca2990ec4f500bfddbbfaa771eac117564",
	"dht-churn":           "10e7fff73709cc4b6581986c80545519e3ad6493c8a60911a84d0f08eb4de24d",
	"fleet-worker-death":  "86511797456e8dfb17a018a6e3005e318f0b258cd4c43a4e8551d53bceab0c0b",
	"incremental-recrawl": "99a07e373b9a8738408f378fbf648db201fb07a285f4325b1dce7584575a885e",
	"live-replication":    "68f65d194bce49c72e29be8c636f40ccd3260e4950b71494cbe42b7e70771fd3",
	"outage-storm":        "fb89c3f23c4d8d798ef4fdb920824d47f0bac40f85dfad35fb2ddb8708866cf0",
}

// TestScenarioReportsGolden runs all seven scenarios at their default seeds
// under GOMAXPROCS 1 and 4 and compares each report's hash with the pinned
// one: the reports are byte-reproducible across core counts, not just run
// over run.
func TestScenarioReportsGolden(t *testing.T) {
	if len(goldenReports) != len(Names()) {
		t.Fatalf("%d pinned reports for %d scenarios", len(goldenReports), len(Names()))
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
				b, err := rep.Encode()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != goldenReports[name] {
					t.Errorf("%s: report sha256 %s, want %s", name, got, goldenReports[name])
				}
			}
		})
	}
}
