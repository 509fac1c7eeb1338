#!/usr/bin/env bash
# The binary witness for the live crawl loop: fedigen writes the tiny world
# at seed 5, fediserve serves it on a loopback port, and fedicrawl crawls it
# twice, at one worker and at four. Both crawls must print the toot and
# follower numbers below and write byte-identical high-water marks, and a
# delta crawl over those marks must find nothing new on the quiescent
# server.
#
# Usage: scripts/loop_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

want_toots="11313 toots from 1192 authors"
want_edges="10040 edges over 2386 accounts"

dir="$(mktemp -d)"
srv=""
cleanup() {
	if [ -n "$srv" ]; then
		kill "$srv" 2>/dev/null || true
		wait "$srv" 2>/dev/null || true
	fi
	rm -rf "$dir"
}
trap cleanup EXIT

for cmd in fedigen fediserve fedicrawl; do
	go build -o "$dir/$cmd" "./cmd/$cmd"
done
"$dir/fedigen" -config tiny -seed 5 -out "$dir/w.fedi"

"$dir/fediserve" -world "$dir/w.fedi" -addr 127.0.0.1:0 >"$dir/serve.log" 2>&1 &
srv=$!
addr=""
for _ in $(seq 1 300); do
	addr="$(sed -n 's/.*serving on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$dir/serve.log")"
	if [ -n "$addr" ]; then
		break
	fi
	if ! kill -0 "$srv" 2>/dev/null; then
		cat "$dir/serve.log" >&2
		echo "loop_smoke: fediserve exited before serving" >&2
		exit 1
	fi
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "loop_smoke: fediserve did not start serving within 30s" >&2
	exit 1
fi

crawl() { # log name, then fedicrawl flags
	local name=$1
	shift
	"$dir/fedicrawl" -base "http://$addr" -world "$dir/w.fedi" "$@" | tee "$dir/$name.log"
}
fail=0
expect() { # log name, then the text it must contain
	if ! grep -qF -- "$2" "$dir/$1.log"; then
		echo "loop_smoke: the $1 crawl did not print \"$2\"" >&2
		fail=1
	fi
}

crawl one -workers 1 -write-since "$dir/one.json"
crawl four -workers 4 -write-since "$dir/four.json"
for run in one four; do
	expect "$run" "$want_toots"
	expect "$run" "$want_edges"
done
if ! cmp "$dir/one.json" "$dir/four.json"; then
	echo "loop_smoke: the 1-worker and 4-worker crawls wrote different high-water marks" >&2
	fail=1
fi
crawl delta -workers 4 -followers=false -since "$dir/four.json"
expect delta "): 0 toots from"

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "loop_smoke: OK — 1 and 4 workers agree ($want_toots; $want_edges), the delta crawl found nothing new"
