#!/usr/bin/env bash
# Prints the number of non-test Go lines outside bench/ and tools/ (sibling
# modules: the benchmark and the checkers, not the product) — the figure the
# ROADMAP standing item asks every CHANGES.md entry to report.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './tools/*' -print0 |
	xargs -0 cat | wc -l | awk '{print "non-test Go lines (outside bench/, tools/): " $1}'
