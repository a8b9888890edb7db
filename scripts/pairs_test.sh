#!/usr/bin/env bash
# Checks scripts/pairs.awk, the verdict arithmetic of scripts/pairs.sh, on the
# fixture rows in scripts/testdata/pairs_rows.txt (ten seeds of three sides,
# three metrics; no benchmark run):
#
#   - without the anchor's rows the output is testdata/pairs_parent.json byte
#     for byte: what the program inline in pairs.sh printed before ANCHOR
#     existed;
#   - with them, every metric's verdict against the parent and against the
#     anchor is the one the fixture was built to give: setup_s within bound of
#     the parent and a regression from the anchor, ops_per_s a gain on the
#     parent and within bound of the anchor, lat_p50_us unresolved (quartiles
#     wider than its bound) against both.
set -euo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
rows=$dir/testdata/pairs_rows.txt

got=$(grep -v ' anchor ' "$rows" | awk -v wl=fixture -f "$dir/pairs.awk" 2>/dev/null)
if [ "$got" != "$(cat "$dir/testdata/pairs_parent.json")" ]; then
	echo "pairs_test: the output without an anchor differs from testdata/pairs_parent.json:" >&2
	diff <(echo "$got") "$dir/testdata/pairs_parent.json" >&2 || true
	exit 1
fi

want="within_bound regression gain within_bound unresolved unresolved"
got=$(awk -v wl=fixture -f "$dir/pairs.awk" "$rows" 2>/dev/null |
	sed -n 's/.*"verdict": "\([a-z_]*\)".*/\1/p' | tr '\n' ' ')
if [ "${got% }" != "$want" ]; then
	echo "pairs_test: verdicts (per metric: vs parent, vs anchor) are \"${got% }\", want \"$want\"" >&2
	exit 1
fi
echo "pairs_test: ok"
