#!/usr/bin/env bash
# Fails if README.md's command table drifts from the actual cmd/* tree:
# every cmd/<name> directory must appear in the table, every `cmd/<name>`
# the table mentions must exist, and every -flag in a row's example
# command must be defined by that binary's main.go. Keeps the operator
# docs honest (CI runs this in the docs job).
#
# Exit codes: 0 in sync, 1 drift, 2 missing inputs.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ ! -r README.md ] || [ ! -d cmd ]; then
	echo "docs_check: ERROR: need README.md and a cmd/ directory" >&2
	exit 2
fi

actual="$(ls -d cmd/*/ | sed 's|^cmd/||; s|/$||' | sort)"
documented="$(grep -o '`cmd/[a-z0-9_-]*`' README.md | tr -d '\`' | sed 's|^cmd/||' | sort -u)"

drift=0
for c in $actual; do
	if ! grep -qx "$c" <<<"$documented"; then
		echo "docs_check: cmd/$c exists but is missing from README.md's command table"
		drift=1
	fi
done
for c in $documented; do
	if ! grep -qx "$c" <<<"$actual"; then
		echo "docs_check: README.md documents cmd/$c, which does not exist"
		drift=1
	fi
done

# A table row is "| `cmd/<name>` | what it does | `go run ./cmd/<name> -flag ...` |".
while IFS= read -r row; do
	c="$(printf '%s\n' "$row" | sed 's/^| `cmd\/\([a-z0-9_-]*\)`.*/\1/')"
	[ -r "cmd/$c/main.go" ] || continue
	example="$(printf '%s\n' "$row" | awk -F'|' '{print $4}')"
	for f in $(printf '%s\n' "$example" | tr ' `' '\n\n' | sed -n 's/^--\{0,1\}\([a-z][a-z0-9-]*\).*/\1/p' | sort -u); do
		if ! grep -q "flag\.[A-Za-z0-9]*(\"$f\"" "cmd/$c/main.go"; then
			echo "docs_check: README.md's example for cmd/$c uses -$f, which cmd/$c/main.go does not define"
			drift=1
		fi
	done
done < <(grep '^| `cmd/' README.md)

if [ "$drift" -ne 0 ]; then
	echo "docs_check: README.md command table is out of sync with cmd/*" >&2
	exit 1
fi
echo "docs_check: README.md command table matches cmd/* ($(printf '%s\n' "$actual" | wc -l) commands)"
