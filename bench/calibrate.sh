#!/usr/bin/env bash
# Runs the benchmark against itself: two interleaved sets of runs of the
# same code, one seed per run, and for every workload × end-to-end metric
# prints both medians, both quartile spreads, the gap between the medians
# and the bound from BENCHMARK.json. Exits 1 if a gap or (setup_s apart) a
# spread exceeds its bound. Its output is what CALIBRATION.md records.
#
#   bash bench/calibrate.sh [runs-per-set, default 10] > bench/CALIBRATION.md
#   REPORT_ONLY=1 bash bench/calibrate.sh [runs-per-set]   # re-read bench/out/calibrate
#
# Run it from the repository root, on an otherwise idle box: about
# 2 × runs × 4 workloads × (run_seconds + set-up) seconds, 35 minutes at 10.
# run.sh rebuilds before every run, so leave bench/*.go alone meanwhile.
set -euo pipefail
runs="${1:-10}"
out=bench/out/calibrate
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
if [ -z "${REPORT_ONLY:-}" ]; then
	rm -rf "$out"
	mkdir -p "$out"
	for workload in $workloads; do
		for seed in $(seq 1 "$runs"); do
			for set in a b; do
				bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
					>"$out/$workload.$set.$seed.txt"
			done
		done
	done
fi
python3 - "$out" "$runs" <<'PY'
import glob, json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
failed = False

def last_json(path):
    return json.loads(open(path).read().strip().splitlines()[-1])

def env(path):
    for line in open(path):
        if line.startswith("env "):
            return json.loads(line[4:])

def measured(path):
    """ops/s as measured, from the run's "timed phase" line"""
    for line in open(path):
        if line.startswith("timed phase:"):
            return float(line.split(";")[1].split()[0])

first = env(sorted(glob.glob(out + "/*.a.1.txt"))[0])
print("# Calibration: two sets of runs of the same code\n")
print(f"{runs} runs per set, seeds 1..{runs}, sets interleaved run by run, "
      f"{bench['run_seconds']} s measured per run.\n")
print(f"Box: {first['cpu']}, nproc {first['nproc']}, GOMAXPROCS {first['gomaxprocs']}, "
      f"C {first['c']}, {first['go']}, kernel {first['kernel']}; {first['network']}.\n")
print("spread = (q3 - q1) / median over a set's runs, quartiles as "
      "`statistics.quantiles(values, n=4)`; gap = how much worse set b's median "
      "is than set a's (negative: better), as a share of set a's.\n")
print("| workload | metric | median a | median b | spread a | spread b | gap | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
for w in bench["workloads"]:
    name = w["name"]
    results = {s: [last_json(f"{out}/{name}.{s}.{seed}.txt") for seed in range(1, runs + 1)] for s in "ab"}
    for r in results["a"] + results["b"]:
        if not r["correct"] or r["failed"]:
            failed = True
            print(f"| {name} | a run reported failures | | | | | | | FAIL |")
    med, spread = {}, {}
    for s in "ab":
        q1, q2, q3 = statistics.quantiles([measured(f"{out}/{name}.{s}.{seed}.txt") for seed in range(1, runs + 1)], n=4)
        med[s], spread[s] = q2, (q3 - q1) / q2
    print(f"| {name} | ops/s as measured, not gated | {med['a']:.4f} | {med['b']:.4f} | "
          f"{spread['a']:.4f} | {spread['b']:.4f} | {(med['a'] - med['b']) / med['a']:+.4f} | | |")
    for m in bench["end_to_end"]:
        med, spread = {}, {}
        for s in "ab":
            values = [r["metrics"][m["name"]]["value"] for r in results[s]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med[s], spread[s] = q2, (q3 - q1) / q2
        gap = (med["b"] - med["a"]) / med["a"]
        if m["better"] == "higher":
            gap = -gap
        ok = gap <= m["bound"] and (m["name"] == "setup_s" or max(spread.values()) <= m["bound"])
        failed = failed or not ok
        print(f"| {name} | {m['name']} ({m['unit']}) | {med['a']:.4f} | {med['b']:.4f} | "
              f"{spread['a']:.4f} | {spread['b']:.4f} | {gap:+.4f} | {m['bound']} | {'ok' if ok else 'FAIL'} |")
load = [env(p)["loadavg_start"] for p in glob.glob(out + "/*.txt")]
print(f"\n1-minute load average at the start of a run: median {statistics.median(load):.2f}, max {max(load):.2f}.")
sys.exit(1 if failed else 0)
PY
