package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

func buildWorld(t *testing.T) *dataset.World {
	t.Helper()
	w, err := core.LoadOrBuild("", core.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildPlanDeterministic(t *testing.T) {
	w := buildWorld(t)
	cfg := Config{Seed: 7, Rate: 500, Count: 400}
	a, err := BuildPlan(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 400 || len(b) != 400 {
		t.Fatalf("plan lengths %d, %d, want 400", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}

	c, err := BuildPlan(w, Config{Seed: 8, Rate: 500, Count: 400})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestBuildPlanShape(t *testing.T) {
	w := buildWorld(t)
	plan, err := BuildPlan(w, Config{Seed: 3, Rate: 1000, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Rate·Duration ≈ 2000 arrivals; Poisson noise stays well inside ±20%.
	if len(plan) < 1600 || len(plan) > 2400 {
		t.Fatalf("plan size %d, want ≈2000", len(plan))
	}
	domains := make(map[string]int)
	var last time.Duration
	for i := range plan {
		if plan[i].At < last {
			t.Fatalf("arrivals out of order at %d", i)
		}
		last = plan[i].At
		if plan[i].At > 2*time.Second {
			t.Fatalf("arrival %v past the window", plan[i].At)
		}
		if plan[i].Domain == "" || !strings.HasPrefix(plan[i].Path, "/") {
			t.Fatalf("malformed request %+v", plan[i])
		}
		domains[plan[i].Domain]++
	}
	// Zipf concentration: the busiest domain must dominate a uniform share.
	max := 0
	for _, n := range domains {
		if n > max {
			max = n
		}
	}
	uniform := len(plan) / len(w.Instances)
	if max < 3*uniform {
		t.Fatalf("no popularity skew: busiest domain got %d, uniform share is %d", max, uniform)
	}
}

func TestBuildPlanErrors(t *testing.T) {
	w := buildWorld(t)
	if _, err := BuildPlan(w, Config{Seed: 1, Rate: 0, Count: 10}); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := BuildPlan(w, Config{Seed: 1, Rate: 100}); err == nil {
		t.Fatal("no duration or count accepted")
	}
}

// TestRunAgainstServer replays an exact-count plan into a live httptest
// server and checks the report's bookkeeping invariants.
func TestRunAgainstServer(t *testing.T) {
	w := buildWorld(t)
	var mu sync.Mutex
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		if r.Host == "" {
			http.Error(rw, "no host", http.StatusBadRequest)
			return
		}
		rw.Header().Set("Etag", `"fixed"`)
		if r.Header.Get("If-None-Match") == `"fixed"` {
			rw.WriteHeader(http.StatusNotModified)
			return
		}
		rw.Write([]byte(`[]`))
	}))
	defer ts.Close()

	const n = 200
	plan, err := BuildPlan(w, Config{Seed: 5, Rate: 5000, Count: n})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), plan, RunConfig{Target: ts.URL, Workers: 8, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n {
		t.Fatalf("report counts %d requests, want %d", rep.Requests, n)
	}
	mu.Lock()
	if hits != n {
		t.Fatalf("server saw %d requests, want %d", hits, n)
	}
	mu.Unlock()
	if got := rep.Status2xx + rep.Status304 + rep.StatusOther + rep.Errors; got != rep.Requests {
		t.Fatalf("status classes sum to %d, requests %d", got, rep.Requests)
	}
	if rep.Errors != 0 || rep.StatusOther != 0 {
		t.Fatalf("unexpected failures: %d errors, %d other", rep.Errors, rep.StatusOther)
	}
	if rep.Status304 == 0 {
		t.Fatal("revalidation never produced a 304")
	}
	if rep.Hist.Count() != uint64(n) {
		t.Fatalf("histogram holds %d samples, want %d", rep.Hist.Count(), n)
	}
	if rep.ThroughputRPS <= 0 || rep.P50Ms < 0 || rep.P99Ms < rep.P50Ms || rep.MaxMs < rep.P999Ms {
		t.Fatalf("implausible latency report: %+v", rep)
	}
}

func TestRunEmptyPlan(t *testing.T) {
	if _, err := Run(context.Background(), nil, RunConfig{Target: "http://x"}); err == nil {
		t.Fatal("empty plan accepted")
	}
}
