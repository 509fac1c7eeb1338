package core

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/replication"
)

var (
	worldOnce sync.Once
	tinyWorld *dataset.World
)

func world(t *testing.T) *dataset.World {
	t.Helper()
	worldOnce.Do(func() {
		w, err := LoadOrBuild("", ScaleTiny, 1)
		if err != nil {
			panic(err)
		}
		tinyWorld = w
	})
	return tinyWorld
}

func TestConfigForScale(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		cfg, err := ConfigForScale(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Seed != 5 || cfg.Instances == 0 {
			t.Fatalf("config for %s: %+v", s, cfg)
		}
	}
	if _, err := ConfigForScale("galactic", 1); err == nil {
		t.Fatal("expected error for unknown scale")
	}
	if _, err := LoadOrBuild("", "galactic", 1); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestExperimentIndexComplete(t *testing.T) {
	// DESIGN.md promises all 22 paper artefacts: figs 1-16 (2a-c, 9a-b,
	// 13a-b split) and tables 1-2, plus the three extension experiments.
	want := []string{
		"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9a", "fig9b", "tab1", "fig10", "fig11", "tab2",
		"fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16",
		"ext-blocking", "ext-capacity", "ext-dht",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("%d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
}

// Every experiment either has ledger rows or is named as having no paper
// value on file, and every ledger figure is an experiment (or the world).
func TestFidelityCoversExperiments(t *testing.T) {
	inLedger := map[string]bool{}
	for _, row := range analysis.Ledger {
		inLedger[row.Figure] = true
	}
	ids := map[string]bool{"world": true}
	for _, e := range Experiments() {
		ids[e.ID] = true
		if inLedger[e.ID] == slices.Contains(analysis.NoPaperValue, e.ID) {
			t.Errorf("%s: in the ledger %v, named as having no paper value %v", e.ID, inLedger[e.ID], !inLedger[e.ID])
		}
	}
	for fig := range inLedger {
		if !ids[fig] {
			t.Errorf("ledger figure %s is no experiment", fig)
		}
	}
}

func TestFind(t *testing.T) {
	e, err := Find("tab1")
	if err != nil || e.ID != "tab1" {
		t.Fatalf("Find: %v %v", e, err)
	}
	if _, err := Find("fig99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	w := world(t)
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(w, &buf); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	w := world(t)
	var buf bytes.Buffer
	if err := RunAll(w, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range Experiments() {
		if !strings.Contains(out, "==== "+e.ID+" ") {
			t.Fatalf("RunAll output missing %s", e.ID)
		}
	}
}

func TestSummary(t *testing.T) {
	w := world(t)
	s := Summary(w)
	for _, want := range []string{"finding 2", "finding 3", "finding 4", "instances"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// BenchmarkExperiment regenerates each table and figure of the paper over
// the calibrated small world, one sub-benchmark per experiment id
// (-bench 'Experiment/fig12$' for one of them).
func BenchmarkExperiment(b *testing.B) {
	w := smallWorld(b)
	for _, e := range Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := e.Run(w, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunAll regenerates the whole evaluation section in one go on the
// world bench/ runs paper-pipeline on (the small preset at 500 instances
// and 20,000 users) — bench's core.runall_s seen from where the code is
// edited.
func BenchmarkRunAll(b *testing.B) {
	cfg := gen.SmallConfig(1)
	cfg.Instances, cfg.Users = 500, 20000
	w := gen.Generate(cfg)
	b.ReportAllocs()
	for b.Loop() {
		if err := RunAll(w, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func smallWorld(b *testing.B) *dataset.World {
	b.Helper()
	w, err := LoadOrBuild("", ScaleSmall, 1)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// Every row of a removal table has the header's columns, when a series'
// weighted LCC falls to 0 after point 0 (rows used to come out short) and
// when it is 0 at point 0 and positive later (analysis.Table used to panic).
// A count of 0 SCCs is a count: the column stays.
func TestWriteRemovalColumnsPerSeries(t *testing.T) {
	series := []analysis.RemovalSeries{
		{Label: "falls", Points: []graph.SweepPoint{{LCCWeightFrac: 0.5, SCCs: -1}, {SCCs: -1}, {SCCs: -1}}},
		{Label: "rises", Points: []graph.SweepPoint{{SCCs: 0}, {LCCWeightFrac: 0.25, SCCs: 0}}},
	}
	var buf bytes.Buffer
	if err := writeRemoval(&buf, series, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for _, s := range series {
		if lines[0] != s.Label {
			t.Fatalf("table title %q, want %q:\n%s", lines[0], s.Label, buf.String())
		}
		cols := len(strings.Fields(lines[1]))
		if want := map[string]int{"falls": 4, "rises": 5}[s.Label]; cols != want {
			t.Fatalf("%s: header %q, want %d columns", s.Label, lines[1], want)
		}
		for _, row := range lines[2 : 3+len(s.Points)] { // the separator, then the rows
			if got := len(strings.Fields(row)); got != cols {
				t.Fatalf("%s: row %q has %d cells, header has %d:\n%s", s.Label, row, got, cols, buf.String())
			}
		}
		lines = lines[3+len(s.Points):]
	}
}

// Pool workers asking one list's Twitter baseline at once all get the one
// graph; a world of another seed gets its own.
func TestTwitterBaselineShared(t *testing.T) {
	w := world(t)
	var tb twitterBaseline
	got := make([]*graph.CSR, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tb.graph(w)
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g != got[0] {
			t.Fatal("concurrent callers got different graphs")
		}
	}
	other := *w
	other.Seed++
	if tb.graph(&other) == got[0] {
		t.Fatal("a world of another seed got the cached graph")
	}
}

// Pool workers asking one list's §5.2 placement state at once all get the
// one Experiment; another world, even a copy of this one, gets its own.
func TestPlacementShared(t *testing.T) {
	w := world(t)
	var p placement
	got := make([]*replication.Experiment, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.experiment(w)
		}()
	}
	wg.Wait()
	for _, exp := range got {
		if exp != got[0] {
			t.Fatal("concurrent callers got different Experiments")
		}
	}
	other := *w
	if p.experiment(&other) == got[0] {
		t.Fatal("another world got the cached Experiment")
	}
}
