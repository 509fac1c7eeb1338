package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
)

// goldenReport is the SHA-256 of core.RunAll's report over the full-size
// world of seed 1. It changes only when the generator or an experiment's
// output changes. A run at seed 1 that disagrees prints the hash it got.
const goldenReport = "e3cdcc6057e429b3510864ce9290a141cfc80067d4d94e95a4d8f61b4666fa7d"

// pipelineBench is the paper reproduction itself, with no HTTP anywhere:
// passes of Generate → Save → Load → RunAll until the time is up. An
// operation is one account carried through a pass.
type pipelineBench struct {
	o      options
	cfg    gen.Config
	want   [sha256.Size]byte // the first pass's report; every pass must repeat it
	report string            // the same, before any sabotage, in hex
	world  *dataset.World    // the last loaded world, kept for live_heap_mb
	fileMB float64
	passes int
}

// setupPipeline runs one untimed pass: it warms the heap and fixes the
// report every timed pass must reproduce.
func setupPipeline(o options, _ *tracer) (bench, error) {
	b := &pipelineBench{o: o, cfg: worldConfig(o, o.seed)}
	sum, err := b.pass(nil)
	if err != nil {
		return nil, err
	}
	b.want = sum
	b.report = hex.EncodeToString(sum[:])
	if o.sabotage {
		b.want[0] ^= 1
	}
	return b, nil
}

// pass carries one generated world through the file format and the whole
// evaluation, and returns the report's hash.
func (b *pipelineBench) pass(tr *tracer) (sum [sha256.Size]byte, err error) {
	b.passes++
	op := int64(b.passes)
	tr.do(spanRepetition, 0, op, func(pass uint64) {
		var w *dataset.World
		tr.do(spanGenerate, pass, op, func(uint64) { w = gen.Generate(b.cfg) })
		var file bytes.Buffer
		tr.do(spanSave, pass, op, func(uint64) { err = w.Save(&file) })
		if err != nil {
			return
		}
		b.fileMB = float64(file.Len()) / (1 << 20)
		saved := file.Bytes()
		tr.do(spanLoad, pass, op, func(uint64) { b.world, err = dataset.Load(bytes.NewReader(saved)) })
		if err != nil {
			return
		}
		var again bytes.Buffer
		tr.do(spanSave, pass, op, func(uint64) { err = b.world.Save(&again) })
		if err == nil && !bytes.Equal(saved, again.Bytes()) {
			err = fmt.Errorf("Save→Load→Save changed the file")
		}
		if err != nil {
			return
		}
		h := sha256.New()
		tr.do(spanRunAll, pass, op, func(uint64) { err = core.RunAll(b.world, h) })
		h.Sum(sum[:0])
	})
	return sum, err
}

func (b *pipelineBench) run(d time.Duration, tr *tracer) phase {
	var ph phase
	start := time.Now()
	for time.Since(start) < d {
		sum, err := b.pass(tr)
		ph.ops += int64(b.cfg.Users)
		if err != nil || sum != b.want {
			ph.failed += int64(b.cfg.Users)
		}
	}
	ph.wall = time.Since(start)
	return ph
}

// finish holds seed 1's full-size report against the committed hash.
func (b *pipelineBench) finish() (attempted, failed int64) {
	if b.o.seed != 1 || b.o.tiny {
		return 0, 0
	}
	if b.report != goldenReport {
		fmt.Fprintf(os.Stderr, "bench: seed 1 report hashes to %s, the golden hash is %s\n", b.report, goldenReport)
		return 1, 1
	}
	return 1, 0
}

func (b *pipelineBench) close() {}

// layers reports each stage as its median over the traced passes, then
// runs every experiment alone, to name the one that owns RunAll.
func (b *pipelineBench) layers(_ time.Duration, tr *tracer, all []span, _ phase) map[string]float64 {
	m := map[string]float64{"dataset.file_mb": b.fileMB}
	for kind, name := range map[spanKind]string{
		spanGenerate: "gen.generate_s", spanSave: "dataset.save_s", spanLoad: "dataset.load_s", spanRunAll: "core.runall_s",
	} {
		m[name] = median(secondsOf(all, kind))
	}
	var alone float64
	for i, e := range core.Experiments() {
		took := tr.do(spanExperiment, 0, int64(i), func(uint64) {
			_ = e.Run(b.world, io.Discard) // RunAll over this world already succeeded
		}).Seconds()
		alone += took
		if slices.Contains(experimentIDs, e.ID) {
			m[expMetric(e.ID)] = took
		}
	}
	m["core.runall_parallel_gain"] = alone / m["core.runall_s"]
	return m
}
