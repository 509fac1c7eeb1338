package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/simnet"
)

// The bytes of the benchmark's paper-pipeline world at seed 1 (SmallConfig
// with 500 instances and 20,000 users) and of core.RunAll's report over it.
// goldenReport is bench/pipeline.go's constant of the same name; this test
// is where a slip in the generator, the world file or an experiment shows
// up in seconds rather than in the benchmark gate. A change that means to
// alter either output updates the hash here, and goldenReport there.
const (
	goldenWorld  = "2f7c2f300f6231e36473c4c6b87518fb9a3394e9ccdf87576a95b1dcadbe325a"
	goldenReport = "e3cdcc6057e429b3510864ce9290a141cfc80067d4d94e95a4d8f61b4666fa7d"
)

func TestGoldenWorldAndReport(t *testing.T) {
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
		h := sha256.New()
		if err := core.RunAll(w, h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenReport {
			t.Errorf("shards=%d: report hashes to %s, want %s", shards, got, goldenReport)
		}
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
