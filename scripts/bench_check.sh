#!/usr/bin/env bash
# Diffs the newest BENCH_<n>.json snapshot (written by scripts/bench.sh)
# against the previous one and reports ns/op movement. Regressions worse
# than 20% on the DESIGN.md ablation benchmarks (Benchmark*Ablation*) are
# flagged loudly; everything else is informational.
#
# Usage: scripts/bench_check.sh [threshold-pct]   (default: 20)
#
# Exit codes:
#   0  comparison ran (regressions, if any, are reported but never fail
#      the script — it is a non-blocking report, not a perf gate), or
#      fewer than two snapshots exist and there is nothing to compare
#   2  a snapshot is malformed: unreadable, or it contains no parsable
#      "BenchmarkName": {... "ns_per_op": N ...} entries — previously such
#      a file silently produced an empty (passing) report
set -euo pipefail

cd "$(dirname "$0")/.."

threshold="${1:-20}"

# Locate the two newest snapshots by index.
latest=-1
prev=-1
for f in BENCH_*.json; do
	[ -e "$f" ] || continue
	n="${f#BENCH_}"
	n="${n%.json}"
	case "$n" in *[!0-9]*) continue ;; esac
	if [ "$n" -gt "$latest" ]; then
		prev=$latest
		latest=$n
	elif [ "$n" -gt "$prev" ]; then
		prev=$n
	fi
done

if [ "$latest" -lt 0 ] || [ "$prev" -lt 0 ]; then
	echo "bench_check: need at least two BENCH_<n>.json snapshots, nothing to compare"
	exit 0
fi

old="BENCH_${prev}.json"
new="BENCH_${latest}.json"

for f in "$old" "$new"; do
	if [ ! -r "$f" ]; then
		echo "bench_check: ERROR: cannot read $f" >&2
		exit 2
	fi
done

echo "bench_check: comparing $old -> $new (threshold ${threshold}%)"

# Each snapshot holds flat lines of the form
#   "BenchmarkName": {"iters": N, "ns_per_op": N, ...}
# so a line-oriented awk pass is enough; no JSON tooling required.
awk -v threshold="$threshold" '
function parse(line) {
	if (match(line, /"Benchmark[^"]*"/) == 0) return ""
	name = substr(line, RSTART + 1, RLENGTH - 2)
	if (match(line, /"ns_per_op": *[0-9.e+-]+/) == 0) return ""
	ns = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", ns)
	return name SUBSEP ns
}
{
	kv = parse($0)
	if (kv == "") next
	split(kv, a, SUBSEP)
	# Keyed on FILENAME, not a file counter: a zero-line first snapshot
	# never fires FNR==1, which would misfile every record.
	if (FILENAME == ARGV[1]) { before[a[1]] = a[2]; nbefore++ }
	else { after[a[1]] = a[2]; nafter++ }
}
END {
	# A snapshot that parses to zero benchmark entries is malformed, not
	# empty: bench.sh always writes at least one entry. Fail loudly (exit
	# 2) instead of letting an empty diff read as "no regressions".
	if (nbefore == 0 || nafter == 0) {
		printf "bench_check: ERROR: %s contains no parsable benchmark entries (malformed snapshot)\n",
			(nbefore == 0 ? ARGV[1] : ARGV[2]) > "/dev/stderr"
		exit 2
	}
	regressions = 0
	for (name in after) {
		if (!(name in before) || before[name] <= 0) continue
		delta = (after[name] - before[name]) / before[name] * 100
		ablation = (name ~ /Ablation/)
		if (delta > threshold && ablation) {
			printf "REGRESSION  %-50s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
				name, before[name], after[name], delta
			regressions++
		} else if (delta > threshold) {
			printf "slower      %-50s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
				name, before[name], after[name], delta
		} else if (delta < -threshold) {
			printf "improved    %-50s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
				name, before[name], after[name], delta
		}
	}
	if (regressions > 0)
		printf "bench_check: %d ablation benchmark(s) regressed more than %s%%\n", regressions, threshold
	else
		printf "bench_check: no ablation regressions beyond %s%%\n", threshold
}
' "$old" "$new"

# Ablation-pair report: for each fast-path/baseline pair in the latest
# snapshot, print the speedup the design choice buys (see DESIGN.md,
# "Wire codecs and response caching", "Paper-scale worlds"). Pairs are
# "fast:slow" benchmark names; missing names are skipped silently. Both
# ns/op and allocs/op ratios are reported — the streamed-timeline pair is
# primarily an allocation win.
echo
echo "bench_check: ablation pairs in $new (fast vs baseline)"
awk '
function parse(line) {
	if (match(line, /"Benchmark[^"]*"/) == 0) return ""
	name = substr(line, RSTART + 1, RLENGTH - 2)
	if (match(line, /"ns_per_op": *[0-9.e+-]+/) == 0) return ""
	ns = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", ns)
	al = ""
	if (match(line, /"allocs_per_op": *[0-9.e+-]+/) > 0) {
		al = substr(line, RSTART, RLENGTH)
		sub(/.*: */, "", al)
	}
	return name SUBSEP ns SUBSEP al
}
BEGIN {
	npairs = split(\
		"BenchmarkAblationWireEncodeStatusPage:BenchmarkAblationJSONEncodeStatusPage " \
		"BenchmarkAblationWireDecodeStatusPage:BenchmarkAblationJSONDecodeStatusPage " \
		"BenchmarkAblationWireEncodeInstanceInfo:BenchmarkAblationJSONEncodeInstanceInfo " \
		"BenchmarkAblationWireDecodeInstanceInfo:BenchmarkAblationJSONDecodeInstanceInfo " \
		"BenchmarkAblationWireEncodeActivity:BenchmarkAblationJSONEncodeActivity " \
		"BenchmarkAblationWireDecodeActivity:BenchmarkAblationJSONDecodeActivity " \
		"BenchmarkAblationWireScanFollowerPage:BenchmarkAblationRegexpScanFollowerPage " \
		"BenchmarkAblationTimelineCached:BenchmarkAblationTimelineRerendered " \
		"BenchmarkAblationFollowersCached:BenchmarkAblationFollowersRerendered " \
		"BenchmarkAblationInstanceInfoCached:BenchmarkAblationInstanceInfoRerendered " \
		"BenchmarkCrawlWorld:BenchmarkAblationCrawlSocket " \
		"BenchmarkGenerateParallel:BenchmarkAblationGenerateShard1 " \
		"BenchmarkFleetCrawl:BenchmarkAblationFleetCrawlWorkers1 " \
		"BenchmarkAblationETagRevalidate:BenchmarkAblationETagFullFetch " \
		"BenchmarkAblationTimelineStreamed:BenchmarkAblationTimelineMaterialised " \
		"BenchmarkAblationLoadKeepAlive:BenchmarkAblationLoadNoKeepAlive", pairs, " ")
}
{
	kv = parse($0)
	if (kv == "") next
	split(kv, a, SUBSEP)
	val[a[1]] = a[2]
	alloc[a[1]] = a[3]
}
END {
	for (i = 1; i <= npairs; i++) {
		split(pairs[i], p, ":")
		if (!(p[1] in val) || !(p[2] in val) || val[p[1]] <= 0) continue
		line = sprintf("  %-44s %12.0f vs %12.0f ns/op (%.2fx)", \
			substr(p[1], 10), val[p[1]], val[p[2]], val[p[2]] / val[p[1]])
		if (alloc[p[1]] != "" && alloc[p[2]] != "" && alloc[p[1]] > 0)
			line = line sprintf("  %.1fx allocs", alloc[p[2]] / alloc[p[1]])
		print line
	}
}
' "$new"

exit 0
