#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark, as one command.
#
#   [ANCHOR=<anchor-ref>] scripts/pairs.sh <parent-ref> <workload>[,<workload>...] <n> [seconds] [out.json]
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git and nothing is left behind), then runs the benchmark
# driver's exact command — go run -C bench repro/bench --workload W --seconds S
# --seed N — on the parent and on this tree <n> times each, alternating which
# side goes first and giving every pair a fresh seed. With ANCHOR set it
# extracts <anchor-ref> too and runs <n> triples instead — anchor, parent and
# change in an order that rotates from triple to triple, one seed per triple —
# and the file also names "anchor_commit" and gives every metric a
# "vs_anchor" block: the change against the anchor by the same rule, so a
# slow drift across several changes shows. It writes the file named
# by the fifth argument or by $OUT (one of the two is required; a trajectory
# file is BENCH_<pr>.json at the repo root): per workload, for every
# end-to-end metric the run's own table gives a bound for — setup_s,
# ops_per_s, lat_p50_us, lat_p99_us, rss_peak_mb and, where the workload
# reconfigures, unavail_ms_per_reconfig and join_ms_p50 — every pair's two
# values, each side's median and quartiles, the pairs the change won and lost,
# and a verdict by the choosing-metrics rule:
#
#   gain          the change won >= 9/10 of the pairs and the medians differ by
#                 more than the distance between the parent's quartiles
#   unresolved    not a gain, and the parent's quartiles lie further apart than
#                 the metric's bound (a share of the parent's median, read from
#                 the table, which prints what bench/main.go declares): the
#                 runner cannot tell "unchanged" from "worse" here
#   regression    the change's median is worse than the parent's by more than
#                 the bound
#   within_bound  none of the above
#
# (scripts/pairs.awk holds the rule; scripts/pairs_test.sh checks it on fixture
# rows), plus the runner facts without which two files must never be compared.
# Beside the metrics it records every run's attempted and failed operations
# (from the contract line) and each side's failed share, Σfailed / Σattempted
# over its runs: a change must not fail a larger share than its parent.
#
# The working tree is measured as it is, committed or not; "change_commit" says
# which commit it sits on and "change_dirty" whether it differs from it.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p;}' "$0" >&2
	exit 2
fi
parent_ref=$1 workloads=${2//,/ } pairs=$3 seconds=${4:-25}
repo=$(cd "$(dirname "$0")/.." && pwd)
out=${5:-${OUT:-}}
if [ -z "$out" ]; then
	echo "pairs: name the output file: fifth argument or OUT=" >&2
	exit 2
fi
seed0=${SEED:-$(date +%s)}

parent_commit=$(git -C "$repo" rev-parse "$parent_ref^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$repo" archive "$parent_commit" | tar -x -C "$tmp/parent"
anchor_commit=
if [ -n "${ANCHOR:-}" ]; then
	anchor_commit=$(git -C "$repo" rev-parse "$ANCHOR^{commit}")
	mkdir "$tmp/anchor"
	git -C "$repo" archive "$anchor_commit" | tar -x -C "$tmp/anchor"
fi

# run_one <tree> <workload> <seed>: the driver's command. Prints "ops
# attempted failed" from the contract line, then one line per bounded
# end-to-end metric — "name value bound better" — read from the table the run
# prints (setup_s from the contract line, which has all its digits), or fails
# if the run was not correct.
run_one() {
	local line
	(cd "$1" && go run -C bench repro/bench --workload "$2" --seconds "$seconds" --seed "$3") >"$tmp/run.txt"
	line=$(tail -n 1 "$tmp/run.txt")
	case $line in
	*'"correct":true'*) ;;
	*) echo "pairs: $1 $2 seed $3: $line" >&2; return 1 ;;
	esac
	sed -n 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/ops \1 \2/p' <<<"$line"
	awk -v setup="$(sed -n 's/.*"setup_s":{"value":\([0-9.eE+-]*\).*/\1/p' <<<"$line")" '
		/^  diagnostics/ { exit }
		match($0, /bound [0-9]+%, (lower|higher) is better/) {
			split(substr($0, RSTART, RLENGTH), w, /[ %,]+/)
			print $1, ($1 == "setup_s" ? setup : $2), w[2] / 100, w[3]
		}' "$tmp/run.txt"
}

{
	printf '{\n'
	[ -z "$anchor_commit" ] || printf ' "anchor_commit": "%s",\n' "$anchor_commit"
	printf ' "parent_commit": "%s",\n "change_commit": "%s",\n "change_dirty": %s,\n' \
		"$parent_commit" "$(git -C "$repo" rev-parse HEAD)" \
		"$([ -n "$(git -C "$repo" status --porcelain)" ] && echo true || echo false)"
	printf ' "runner": {"nproc": %s, "gomaxprocs": %s, "go_version": "%s", "kernel": "%s"},\n' \
		"$(nproc)" "${GOMAXPROCS:-$(nproc)}" "$(go env GOVERSION)" "$(uname -sr)"
	printf ' "command": "go run -C bench repro/bench --workload W --seconds %s --seed N",\n' "$seconds"
	printf ' "workloads": [\n'
} >"$tmp/out.json"

first_wl=1
for wl in $workloads; do
	: >"$tmp/rows.txt" # seed side name value bound better, or seed side ops attempted failed
	for i in $(seq 1 "$pairs"); do
		seed=$((seed0 + i))
		if [ -n "$anchor_commit" ]; then
			case $((i % 3)) in
			1) order="anchor parent change" ;;
			2) order="parent change anchor" ;;
			0) order="change anchor parent" ;;
			esac
		elif [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
		for side in $order; do
			tree=$repo
			[ "$side" = change ] || tree=$tmp/$side
			run_one "$tree" "$wl" "$seed" | sed "s/^/$seed $side /" >>"$tmp/rows.txt"
		done
		echo "pairs: $wl pair $i/$pairs seed $seed:$(awk -v s="$seed" '
			$1 != s { next }
			NR == FNR { if ($2 != "change") v[$2, $3] = ($3 == "ops") ? $5 "/" $4 : $4; next }
			$2 != "change" { next }
			{ was = ((("anchor", $3) in v) ? v["anchor", $3] " -> " : "") v["parent", $3] }
			$3 == "ops" { printf " failed %s -> %s/%s;", was, $5, $4; next }
			{ printf " %s %s -> %s;", $3, was, $4 }' "$tmp/rows.txt" "$tmp/rows.txt")" >&2
	done
	[ $first_wl -eq 1 ] || echo ' ,' >>"$tmp/out.json"
	first_wl=0
	awk -v wl="$wl" -f "$repo/scripts/pairs.awk" "$tmp/rows.txt" >>"$tmp/out.json"
done
printf ' ]\n}\n' >>"$tmp/out.json"
mv "$tmp/out.json" "$out"
echo "pairs: wrote $out" >&2
