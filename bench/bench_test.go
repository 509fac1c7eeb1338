package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 3, seconds: 0.4, trace: trace, outDir: t.TempDir(), tiny: true}
}

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// Every workload, at tiny size: the checks pass, the result names every
// metric with its unit, and the environment block is there.
func TestWorkloads(t *testing.T) {
	endToEnd := []metricDef{{"setup_s", "s"}, {"ops_per_ref_s", "1/s"}, {"alloc_kb_per_op", "KB"}, {"live_heap_mb", "MB"}}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", wl.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				o := tinyOptions(t, trace)
				if !runWorkload(wl, o, &out) {
					t.Fatalf("run failed:\n%s", out.String())
				}
				res := lastLine(t, &out)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %t, failed %d of %d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace {
					want = layerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.name, got, ok, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %g; it must never be 0", m.name, got.Value)
					}
				}
				for _, field := range []string{`"nproc"`, `"gomaxprocs"`, `"c"`, `"go"`, `"cpu"`, `"kernel"`, `"loadavg_start"`, `"loadavg_end"`, `"seed":3`, `"sizes"`, "co-resident"} {
					if !strings.Contains(out.String(), field) {
						t.Errorf("environment block lacks %s", field)
					}
				}
				if trace {
					checkTraced(t, wl.name, res, o)
				}
			})
		}
	}
}

// checkTraced holds a traced run to the reconciliations README.md states.
func checkTraced(t *testing.T, name string, res result, o options) {
	v := func(metric string) float64 { return res.Metrics[metric].Value }
	spans, err := os.ReadFile(o.outDir + "/spans-" + name + ".jsonl")
	if err != nil || len(spans) == 0 {
		t.Fatalf("span file: %v (%d bytes)", err, len(spans))
	}
	var first struct {
		Name    string
		ID      uint64
		StartNS *int64 `json:"start_ns"`
		EndNS   *int64 `json:"end_ns"`
	}
	line, _, _ := bytes.Cut(spans, []byte("\n"))
	if err := json.Unmarshal(line, &first); err != nil || first.Name == "" || first.StartNS == nil || first.EndNS == nil {
		t.Errorf("span line %q: %v", line, err)
	}
	var moved []string
	switch name {
	case "serve-hot", "serve-churn":
		moved = []string{"client.p50_us", "instance.serve_us", "nethttp.self_us", "instance.status_200", "instance.status_304", "instance.bytes_per_op", "instance.loadworld_s", "client.warmup_s", "gen.generate_s"}
		if name == "serve-churn" {
			moved = append(moved, "instance.inbox_us", "instance.status_202")
		} else {
			moved = append(moved, "loadgen.ol5k_p99_ms", "loadgen.ol20k_achieved_share")
			if v("instance.status_202") != 0 || v("instance.stale_tag_share") != 0 {
				t.Errorf("serve-hot saw writes or stale tags: %g, %g", v("instance.status_202"), v("instance.stale_tag_share"))
			}
		}
	case "campaign":
		moved = []string{"simnet.new_s", "simnet.probe_s", "simnet.scrape_s", "simnet.rebuild_s", "dataset.save_s", "crawler.probe_requests", "crawler.follower_requests", "instance.mem_probe_us", "crawler.self_share"}
	case "paper-pipeline":
		moved = []string{"gen.generate_s", "dataset.save_s", "dataset.load_s", "dataset.file_mb", "core.runall_s", "core.runall_parallel_gain", "core.exp.fig12_s"}
	}
	for _, metric := range append(moved, "proc.cpu_us_per_op", "proc.mallocs_per_op", "proc.peak_rss_mb") {
		if v(metric) <= 0 {
			t.Errorf("%s = %g on %s; want it measured", metric, v(metric), name)
		}
	}
}

// A wrong expectation must come out as failed operations, correct false
// and a failing run — never as a crash or a silent pass.
func TestWrongExpectationFails(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var out bytes.Buffer
			o := tinyOptions(t, false)
			o.sabotage = true
			if runWorkload(wl, o, &out) {
				t.Errorf("the run passed:\n%s", out.String())
			}
			if res := lastLine(t, &out); res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
				t.Errorf("correct %t, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func planHash(p *plan) [sha256.Size]byte {
	h := sha256.New()
	for _, op := range p.ops {
		k := p.keys[op.key]
		fmt.Fprintf(h, "%s %s %t %t %t\n", p.domains[k.domain], k.path, k.blocked, op.revalidate, op.write)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func TestPlanDeterminism(t *testing.T) {
	w := gen.Generate(gen.TinyConfig(5))
	const n = 4000
	for _, churn := range []bool{false, true} {
		p := buildPlan(w, 7, n, churn)
		if planHash(p) != planHash(buildPlan(w, 7, n, churn)) {
			t.Errorf("churn %t: the same seed gave two plans", churn)
		}
		if planHash(p) == planHash(buildPlan(w, 8, n, churn)) {
			t.Errorf("churn %t: seeds 7 and 8 gave one plan", churn)
		}
		revalidate, writes := 0, 0
		for i, op := range p.ops {
			if op.revalidate {
				revalidate++
			}
			if op.write {
				writes++
			}
			if op.write != (churn && i%writeEvery == writeEvery-1) {
				t.Fatalf("churn %t: op %d write = %t", churn, i, op.write)
			}
		}
		if revalidate != n/2 {
			t.Errorf("churn %t: %d of %d ops revalidate, want exactly half", churn, revalidate, n)
		}
		want := 0
		if churn {
			want = n / writeEvery
		}
		if writes != want {
			t.Errorf("churn %t: %d writes, want %d", churn, writes, want)
		}
	}
}

// BENCHMARK.json is written by hand from the tables in this package; this
// keeps the two from drifting. It also notices when core.Experiments()
// no longer matches the ids the metric names were taken from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: %s (%s) in BENCHMARK.json, %s (%s) here", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	units := map[string]string{"setup_s": "s", "ops_per_ref_s": "1/s", "alloc_kb_per_op": "KB", "live_heap_mb": "MB"}
	if len(spec.EndToEnd) != len(units) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, want %d", len(spec.EndToEnd), len(units))
	}
	for _, m := range spec.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s (%s) is not what a run prints", m.Name, m.Unit)
		}
	}

	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	if strings.Join(ids, " ") != strings.Join(experimentIDs, " ") {
		t.Errorf("core.Experiments() is %v; the core.exp.* metrics were named from %v", ids, experimentIDs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %g %g %g, want 3.5 24 160", q1, q2, q3)
	}
}
