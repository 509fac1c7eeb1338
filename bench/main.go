// Command bench is the repository's benchmark: four workloads, each run
// from this one process, each printing its metrics by name and unit and
// checking the program's outputs. README.md says what each workload is
// for and how the metrics relate; BENCHMARK.json at the repository root is
// the contract the output is written to.
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 22 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options is one run's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // where the span file goes

	// Tests only. tiny swaps in TinyConfig worlds and short plans so a run
	// takes about a second; sabotage makes the workload expect one wrong
	// answer, to exercise the failure path.
	tiny     bool
	sabotage bool
}

// cores is C: GOMAXPROCS, closed-loop workers, connections and crawler
// workers alike. One process generates all load and serves it.
func cores() int { return min(runtime.NumCPU(), 4) }

// A bench is one workload, set up and ready for its timed phase.
type bench interface {
	// run drives the workload for about d. With tr set, the layer wrappers
	// record spans into it; with tr nil no timing wrapper runs.
	run(d time.Duration, tr *tracer) phase
	// finish runs the checks that need the whole run behind them.
	finish() (attempted, failed int64)
	// layers makes the workload's traced-only measurements, spending about
	// d on them, and derives its layer metrics from the recorded spans.
	// traced is the phase that ran under tr.
	layers(d time.Duration, tr *tracer, all []span, traced phase) map[string]float64
	// close releases listeners and connections; the bench's memory goes
	// when the caller drops it.
	close()
}

// phase is what one timed run did.
type phase struct {
	ops, failed int64
	wall        time.Duration
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

func (p *phase) add(q phase) {
	p.ops += q.ops
	p.failed += q.failed
	p.wall += q.wall
}

type workload struct {
	name  string
	setup func(o options, tr *tracer) (bench, error)
	// tracedShare is the part of a traced run's seconds given to the
	// untraced and to the traced closed phase; the rest goes to layers.
	tracedShare float64
}

var workloads = []workload{
	{"serve-hot", func(o options, tr *tracer) (bench, error) { return setupServe(o, false, tr) }, 0.35},
	{"serve-churn", func(o options, tr *tracer) (bench, error) { return setupServe(o, true, tr) }, 0.5},
	{"campaign", setupCampaign, 0.5},
	{"paper-pipeline", setupPipeline, 0.4},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	setupRepeats = 3           // set-up runs this often; setup_s is the median
	sliceLength  = time.Second // of the timed phase, between two readings of the reference
)

// measureEndToEnd runs one workload with no timing wrapper installed.
func measureEndToEnd(wl workload, o options, log io.Writer) (result, error) {
	var b bench
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if b, err = wl.setup(o, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	ph, speed, allocated, err := timedPhase(b, seconds(o.seconds), log)
	if err != nil {
		return result{}, err
	}
	// Resting footprint: what survives collection with the world, network
	// or harness still referenced by b.
	runtime.GC()
	runtime.GC()
	var rest runtime.MemStats
	runtime.ReadMemStats(&rest)
	attempted, failed := b.finish()

	fmt.Fprintf(log, "set-up %s s (median of %d)\n", floats(setups), setupRepeats)
	return result{
		Attempted: ph.ops + attempted,
		Failed:    ph.failed + failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"ops_per_ref_s":   {ph.opsPerSec() / speed, "1/s"},
			"alloc_kb_per_op": {float64(allocated) / 1024 / float64(ph.ops), "KB"},
			"live_heap_mb":    {float64(rest.HeapAlloc) / (1 << 20), "MB"},
		},
	}, nil
}

// timedPhase is the measured part of an end-to-end run: slices of the
// workload with the reference read after each (ref.go says why), for d in
// all. It returns what the workload did, how fast the box ran the reference
// meanwhile, and the bytes allocated.
func timedPhase(b bench, d time.Duration, log io.Writer) (ph phase, speed float64, allocated uint64, err error) {
	ref, err := newReference()
	if err != nil {
		return phase{}, 0, 0, fmt.Errorf("reference: %w", err)
	}
	defer ref.close()
	var raw, normal []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for start := time.Now(); time.Since(start) < d; {
		slice := b.run(sliceLength, nil)
		now := ref.measure()
		if slice.ops == 0 || !(now > 0) {
			return phase{}, 0, 0, fmt.Errorf("a slice completed %d operations at reference speed %g", slice.ops, now)
		}
		ph.add(slice)
		raw = append(raw, slice.opsPerSec())
		normal = append(normal, slice.opsPerSec()/now)
	}
	runtime.ReadMemStats(&after)
	speed = ref.speed()
	fmt.Fprintf(log, "timed phase: %d ops in %.3fs, %d failed; %.1f ops/s as measured, reference speed %.4f\n",
		ph.ops, ph.wall.Seconds(), ph.failed, ph.opsPerSec(), speed)
	for _, rates := range []struct {
		name string
		v    []float64
	}{{"ops/s as measured", raw}, {"ops_per_ref_s", normal}} {
		q1, q2, q3 := quartiles(rates.v)
		fmt.Fprintf(log, "%s over %d slices: q1 %.0f median %.0f q3 %.0f\n", rates.name, len(rates.v), q1, q2, q3)
	}
	return ph, speed, after.TotalAlloc - before.TotalAlloc, nil
}

// measureLayers is the separate traced run: an untraced phase for the
// process counters and the tracing overhead, the same phase again under the
// tracer, then the workload's own layer measurements.
func measureLayers(wl workload, o options, log io.Writer) (result, error) {
	tr := newTracer(cores() + 1)
	b, err := wl.setup(o, tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()

	d := seconds(o.seconds * wl.tracedShare)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	plain := b.run(d, nil)
	cpu = cpuTime() - cpu
	runtime.ReadMemStats(&after)
	traced := b.run(d, tr)
	if plain.ops == 0 || traced.ops == 0 {
		return result{}, fmt.Errorf("no operation completed in %.1fs", d.Seconds())
	}
	all := tr.spans()
	values := b.layers(seconds(o.seconds)-2*d, tr, all, traced)
	attempted, failed := b.finish()

	values["proc.cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(plain.ops)
	values["proc.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(plain.ops)
	values["proc.gc_cycles"] = float64(after.NumGC - before.NumGC)
	values["proc.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	values["proc.peak_rss_mb"] = peakRSSMB()
	values["proc.ops_per_s"] = plain.opsPerSec()
	values["trace.overhead_share"] = 1 - traced.opsPerSec()/plain.opsPerSec()

	// layers may have recorded more spans (the single experiments).
	all = tr.spans()
	path := filepath.Join(o.outDir, "spans-"+wl.name+".jsonl")
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := writeJSONL(path, all); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "untraced %d ops in %.3fs, traced %d ops in %.3fs, %d spans in %s\n",
		plain.ops, plain.wall.Seconds(), traced.ops, traced.wall.Seconds(), len(all), path)
	// The phases of a repetition or pass must account for its wall time.
	if covered, ok := phaseCoverage(all); ok {
		fmt.Fprintf(log, "phase spans cover %.4f of their repetitions' wall time\n", covered)
		attempted++
		if covered < 0.95 || covered > 1.05 {
			failed++
		}
	}

	res := result{
		Attempted: plain.ops + traced.ops + attempted,
		Failed:    plain.failed + traced.failed + failed,
		Metrics:   make(map[string]metric, len(layerMetrics)),
	}
	// Every run prints every layer metric; one a workload has no such
	// layer for reads 0.
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
		delete(values, m.name)
	}
	for name := range values {
		return result{}, fmt.Errorf("layer metric %q is not in the table", name)
	}
	return res, nil
}

// phaseCoverage is the time the children of the repetition spans cover, as
// a share of the repetitions' own; ok is false when there are none.
func phaseCoverage(all []span) (share float64, ok bool) {
	repetitions := map[uint64]bool{}
	var whole, parts time.Duration
	for i := range all {
		if all[i].kind == spanRepetition {
			repetitions[all[i].id] = true
			whole += all[i].dur()
		}
	}
	for i := range all {
		if all[i].kind < spanMemProbe && repetitions[all[i].parent] {
			parts += all[i].dur()
		}
	}
	return float64(parts) / float64(whole), whole > 0
}

// runWorkload measures one workload and prints its report, the result
// object last. It returns false when the run failed or an output was wrong.
func runWorkload(wl workload, o options, out io.Writer) bool {
	env := readEnvironment(o)
	if env.LoadStart > float64(env.NProc)/2 {
		fmt.Fprintf(out, "warning: 1-minute load average %.2f is above nproc/2; another process shares the cores\n", env.LoadStart)
	}
	measure := measureEndToEnd
	if o.trace {
		measure = measureLayers
	}
	res, err := measure(wl, o, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return false
	}
	env.LoadEnd = loadAverage()
	envJSON, _ := json.Marshal(env) // a struct of strings and numbers cannot fail to encode
	fmt.Fprintf(out, "env %s\n", envJSON)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if m := res.Metrics[name]; m.Value != 0 { // a layer this workload has not got reads 0
			fmt.Fprintf(out, "%-32s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if res.Attempted > 0 {
		fmt.Fprintf(out, "fail_share %g (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	res.Correct = res.Failed == 0
	line, _ := json.Marshal(res) // as above
	fmt.Fprintf(out, "%s\n", line)
	return res.Correct
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "serve-hot, serve-churn, campaign, paper-pipeline, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 22, "length of the timed phase, reference slices included")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, no wrappers; 1: per-layer metrics from spans")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for the span file")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(cores())

	ok, found := true, false
	for _, wl := range workloads {
		if o.workload == wl.name || o.workload == "all" {
			found = true
			ok = runWorkload(wl, o, os.Stdout) && ok
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// environment is printed with every result: numbers from different boxes,
// or from a box that was busy, are not comparable.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	C          int     `json:"c"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Kernel     string  `json:"kernel"`
	LoadStart  float64 `json:"loadavg_start"`
	LoadEnd    float64 `json:"loadavg_end"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      string  `json:"sizes"`
	Network    string  `json:"network"`
}

func readEnvironment(o options) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		C:          cores(),
		Go:         runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadStart:  loadAverage(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Sizes:      sizesOf(o).String(),
		Network:    "loopback, client and server co-resident",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}

// loadAverage is the 1-minute load average, or 0 where /proc has none.
func loadAverage() float64 {
	field, _, _ := strings.Cut(firstLine("/proc/loadavg"), " ")
	v, _ := strconv.ParseFloat(field, 64)
	return v
}

// cpuTime is the user plus system time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func floats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles cuts v as Python's statistics.quantiles(v, n=4) does (the
// exclusive method), so a run's own spread reads like calibrate.sh's.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
