package gen

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

func worldBytes(t *testing.T, w *dataset.World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// atProcs returns the world file cfg generates at GOMAXPROCS procs.
func atProcs(t *testing.T, cfg Config, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return worldBytes(t, Generate(cfg))
}

// Shards is a pure execution knob: the same config must produce a
// byte-identical world file for any shard count and any GOMAXPROCS, however
// the workers split the claimed ranges and whether the traces generate
// beside the social graph or after it.
func TestGenerateShardDeterminism(t *testing.T) {
	cfg := TinyConfig(7)
	cfg.Shards = 1
	want := worldBytes(t, Generate(cfg))

	for _, shards := range []int{2, 3, 7, 64} {
		cfg.Shards = shards
		if got := worldBytes(t, Generate(cfg)); !bytes.Equal(got, want) {
			t.Fatalf("Shards=%d produced different world bytes than Shards=1", shards)
		}
	}

	// Shards=0 resolves to GOMAXPROCS; vary that too.
	cfg.Shards = 0
	for _, procs := range []int{1, 2, 4} {
		if !bytes.Equal(atProcs(t, cfg, procs), want) {
			t.Fatalf("GOMAXPROCS=%d changed the generated world bytes", procs)
		}
	}
}

// A second seed and scale, to make sure determinism is not an artifact of
// one particular configuration.
func TestGenerateShardDeterminismSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale determinism check skipped in -short mode")
	}
	cfg := SmallConfig(11)
	cfg.Shards = 1
	want := worldBytes(t, Generate(cfg))
	cfg.Shards = 5
	if got := worldBytes(t, Generate(cfg)); !bytes.Equal(got, want) {
		t.Fatal("Shards=5 produced different world bytes than Shards=1 at small scale")
	}
	cfg.Shards = 0
	for _, procs := range []int{1, 2, 4} {
		if !bytes.Equal(atProcs(t, cfg, procs), want) {
			t.Fatalf("GOMAXPROCS=%d changed the small world's bytes", procs)
		}
	}
}

// BenchmarkGenerate is bench's gen.generate_s seen from where the code is
// edited: the calibrated small world on one shard and on one per CPU. The
// bytes are the same either way; only wall time differs.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{{"shards=1", 1}, {"shards=N", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := SmallConfig(1)
			cfg.Shards = bc.shards
			b.ReportAllocs()
			for b.Loop() {
				Generate(cfg)
			}
		})
	}
}
