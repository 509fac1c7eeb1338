package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestRunAllDeterministic pins the parallel runner's ordering guarantee
// (DESIGN.md): repeated runs over the same world produce byte-identical
// reports, with experiments in index order, regardless of which worker
// finishes first.
func TestRunAllDeterministic(t *testing.T) {
	w := world(t)
	var first bytes.Buffer
	if err := RunAll(w, &first); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		var again bytes.Buffer
		if err := RunAll(w, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("run %d diverged from the first run", run+2)
		}
	}
	// Headers must appear in Experiments() order.
	out := first.String()
	pos := -1
	for _, e := range Experiments() {
		p := strings.Index(out, "==== "+e.ID+" ")
		if p < 0 {
			t.Fatalf("missing %s", e.ID)
		}
		if p < pos {
			t.Fatalf("experiment %s out of order", e.ID)
		}
		pos = p
	}
}

// TestRunExperimentsErrorSemantics checks the sequential error contract on
// the parallel pool: output up to and including the failing experiment's
// partial content is written, the error is wrapped with the experiment id,
// and later experiments do not appear.
func TestRunExperimentsErrorSemantics(t *testing.T) {
	w := world(t)
	sentinel := errors.New("boom")
	exps := []Experiment{
		{ID: "ok1", Title: "first", Run: func(w *dataset.World, out io.Writer) error {
			fmt.Fprintln(out, "first output")
			return nil
		}},
		{ID: "bad", Title: "failing", Run: func(w *dataset.World, out io.Writer) error {
			fmt.Fprintln(out, "partial output")
			return sentinel
		}},
		{ID: "ok2", Title: "never shown", Run: func(w *dataset.World, out io.Writer) error {
			fmt.Fprintln(out, "should not be written")
			return nil
		}},
	}
	var buf bytes.Buffer
	err := runExperiments(w, &buf, exps, dispatchOrder(exps))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %q does not name the experiment", err)
	}
	out := buf.String()
	for _, want := range []string{"==== ok1", "first output", "==== bad", "partial output"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ok2") || strings.Contains(out, "should not be written") {
		t.Fatalf("output leaked past the failure:\n%s", out)
	}
}

// The order the pool hands experiments out in changes no byte of the
// report: the committed heavy-first order, its reverse and three seeded
// shuffles, each on a fresh list (so a different experiment builds the
// shared Twitter graph and §5.2 state), on one core and on four.
func TestRunAllDispatchOrderIndependent(t *testing.T) {
	w := world(t)
	var want bytes.Buffer
	if err := RunAll(w, &want); err != nil {
		t.Fatal(err)
	}
	committed := dispatchOrder(Experiments())
	orders := map[string][]int{"committed": committed}
	reversed := slices.Clone(committed)
	slices.Reverse(reversed)
	orders["reversed"] = reversed
	for seed := uint64(1); seed <= 3; seed++ {
		shuffled := slices.Clone(committed)
		rand.New(rand.NewPCG(seed, 0)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		orders[fmt.Sprintf("shuffle %d", seed)] = shuffled
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for name, order := range orders {
			var got bytes.Buffer
			if err := runExperiments(w, &got, Experiments(), order); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("GOMAXPROCS %d, %s order %v: the report differs from RunAll's", procs, name, order)
			}
		}
	}
}

// Every id the heavy-first list names is an experiment, named once, so
// the dispatch order is a permutation that starts with all of them.
func TestHeavyFirstNamesExperiments(t *testing.T) {
	exps := Experiments()
	seen := map[string]bool{}
	for _, id := range heavyFirst {
		if seen[id] {
			t.Fatalf("heavyFirst names %s twice", id)
		}
		seen[id] = true
		if !slices.ContainsFunc(exps, func(e Experiment) bool { return e.ID == id }) {
			t.Fatalf("heavyFirst names %s, which is not in Experiments()", id)
		}
	}
	order := dispatchOrder(exps)
	for k, id := range heavyFirst {
		if exps[order[k]].ID != id {
			t.Fatalf("dispatch %d is %s, want %s", k, exps[order[k]].ID, id)
		}
	}
	want := make([]int, len(exps))
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(slices.Sorted(slices.Values(order)), want) {
		t.Fatalf("dispatch order %v is not a permutation of %d experiments", order, len(exps))
	}
}
