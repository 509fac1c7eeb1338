package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
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
