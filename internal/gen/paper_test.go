package gen

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestPaperScaleWorld builds the full paper population — 4,328 instances,
// 2.4M registered accounts, 67M+ toots — and proves the world file round
// trip holds at that size: Save → Load → Save is byte-stable, the decode
// stays within the one-section scratch budget, and the totals match §3.
// Skipped in -short mode and under the race detector; CI runs it in the
// paper-scale job on pushes to main.
func TestPaperScaleWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("paper-scale world skipped under the race detector")
	}
	start := time.Now()

	w := Generate(PaperConfig(1))
	t.Logf("paper world generated in %v", time.Since(start))
	// The heap the generated world holds at rest, which CI's paper-scale
	// job reports.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	traceBytes, outages := traceSetBytes(w.Traces)
	t.Logf("paper world resident: %.1f MB (social graph %d nodes, %d edges; traces %.1f MB, %d outages)",
		float64(ms.HeapAlloc)/(1<<20), w.Social.NumNodes(), w.Social.NumEdges(), float64(traceBytes)/(1<<20), outages)
	_, parts := worldParts(w)
	t.Logf("paper world parts: %s", parts)

	if len(w.Instances) != 4328 {
		t.Fatalf("instances = %d, want 4328", len(w.Instances))
	}
	if len(w.Users) < 2_400_000 {
		t.Fatalf("accounts = %d, want >= 2.4M", len(w.Users))
	}
	if toots := w.TotalToots(); toots < 67_000_000 {
		t.Fatalf("toots = %d, want >= 67M", toots)
	}

	var first bytes.Buffer
	if err := w.Save(&first); err != nil {
		t.Fatal(err)
	}
	t.Logf("saved %d bytes at %v", first.Len(), time.Since(start))

	back, stats, err := dataset.LoadWithStats(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The decoder's promise at scale: transient memory is bounded by one
	// section, never by the world. 8 MB mirrors the encoder's section cap.
	if stats.ScratchCap > 8<<20 {
		t.Fatalf("decode scratch high-water = %d bytes across %d sections: one-section bound broken", stats.ScratchCap, stats.Sections)
	}
	t.Logf("loaded %d sections (max %d B, scratch %d B) at %v",
		stats.Sections, stats.MaxSection, stats.ScratchCap, time.Since(start))

	var second bytes.Buffer
	if err := back.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save → Load → Save is not byte-stable at paper scale")
	}
	t.Logf("paper-scale round trip verified in %v", time.Since(start))
}
