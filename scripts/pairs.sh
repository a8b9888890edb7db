#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark, as one command.
#
#   scripts/pairs.sh <parent-ref> <workload>[,<workload>...] <n> [seconds]
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git and nothing is left behind), then runs the benchmark
# driver's exact command — go run -C bench repro/bench --workload W --seconds S
# --seed N — on the parent and on this tree <n> times each, alternating which
# side goes first and giving every pair a fresh seed. It writes $OUT (default
# BENCH_16.json at the repo root): per workload every pair's two setup_s
# values, each side's median and quartiles, the pairs the change won, whether
# that is a gain by the choosing-metrics rule (>= 9/10 of the pairs and a
# median gap wider than the parent's interquartile range), and the runner
# facts without which two files must never be compared.
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
out=${OUT:-$repo/BENCH_16.json}
seed0=${SEED:-$(date +%s)}

parent_commit=$(git -C "$repo" rev-parse "$parent_ref^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$repo" archive "$parent_commit" | tar -x -C "$tmp/parent"

# run_one <tree> <workload> <seed>: the driver's command; prints setup_s from
# the contract line, or fails if the run was not correct.
run_one() {
	local line
	line=$(cd "$1" && go run -C bench repro/bench --workload "$2" --seconds "$seconds" --seed "$3" | tail -n 1)
	case $line in
	*'"correct":true'*) ;;
	*) echo "pairs: $1 $2 seed $3: $line" >&2; return 1 ;;
	esac
	sed -n 's/.*"setup_s":{"value":\([0-9.eE+-]*\).*/\1/p' <<<"$line"
}

# stats: values on stdin, one per line -> "median q1 q3" (linear interpolation).
stats() {
	sort -g | awk '{v[NR]=$1} END {
		split("0.5 0.25 0.75", p, " ")
		for (i = 1; i <= 3; i++) {
			h = (NR - 1) * p[i] + 1; f = int(h)
			q = v[f]; if (f < NR) q += (h - f) * (v[f + 1] - v[f])
			printf "%s%.6f", (i > 1 ? " " : ""), q
		}
		print ""
	}'
}

{
	printf '{\n "parent_commit": "%s",\n "change_commit": "%s",\n "change_dirty": %s,\n' \
		"$parent_commit" "$(git -C "$repo" rev-parse HEAD)" \
		"$([ -n "$(git -C "$repo" status --porcelain)" ] && echo true || echo false)"
	printf ' "runner": {"nproc": %s, "gomaxprocs": %s, "go_version": "%s", "kernel": "%s"},\n' \
		"$(nproc)" "${GOMAXPROCS:-$(nproc)}" "$(go env GOVERSION)" "$(uname -sr)"
	printf ' "command": "go run -C bench repro/bench --workload W --seconds %s --seed N",\n' "$seconds"
	printf ' "metric": "setup_s", "unit": "s", "better": "lower",\n "workloads": [\n'
} >"$tmp/out.json"

first_wl=1
for wl in $workloads; do
	: >"$tmp/p.txt"; : >"$tmp/c.txt"; : >"$tmp/pairs.txt"
	wins=0 losses=0
	for i in $(seq 1 "$pairs"); do
		seed=$((seed0 + i))
		if [ $((i % 2)) -eq 1 ]; then
			p=$(run_one "$tmp/parent" "$wl" "$seed"); c=$(run_one "$repo" "$wl" "$seed")
		else
			c=$(run_one "$repo" "$wl" "$seed"); p=$(run_one "$tmp/parent" "$wl" "$seed")
		fi
		echo "$p" >>"$tmp/p.txt"; echo "$c" >>"$tmp/c.txt"
		printf '   {"seed": %s, "parent": %s, "change": %s}\n' "$seed" "$p" "$c" >>"$tmp/pairs.txt"
		if awk "BEGIN{exit !($c < $p)}"; then wins=$((wins + 1)); fi
		if awk "BEGIN{exit !($c > $p)}"; then losses=$((losses + 1)); fi
		echo "pairs: $wl pair $i/$pairs seed $seed: parent $p s, change $c s" >&2
	done
	read -r pm pq1 pq3 < <(stats <"$tmp/p.txt")
	read -r cm cq1 cq3 < <(stats <"$tmp/c.txt")
	gain=$(awk "BEGIN{print (($wins >= 0.9 * $pairs) && ($pm - $cm > $pq3 - $pq1)) ? \"true\" : \"false\"}")
	[ $first_wl -eq 1 ] || echo ' ,' >>"$tmp/out.json"
	first_wl=0
	{
		printf '  {"workload": "%s", "pairs": [\n' "$wl"
		sed '$!s/$/,/' "$tmp/pairs.txt"
		printf '   ],\n   "parent": {"median": %s, "q1": %s, "q3": %s},\n' "$pm" "$pq1" "$pq3"
		printf '   "change": {"median": %s, "q1": %s, "q3": %s},\n' "$cm" "$cq1" "$cq3"
		printf '   "median_change_frac": %s, "change_wins": %s, "change_losses": %s, "gain": %s}\n' \
			"$(awk "BEGIN{printf \"%.4f\", ($cm - $pm) / $pm}")" "$wins" "$losses" "$gain"
	} >>"$tmp/out.json"
	echo "pairs: $wl: parent median $pm s [$pq1, $pq3], change median $cm s [$cq1, $cq3], change won $wins/$pairs, gain=$gain" >&2
done
printf ' ]\n}\n' >>"$tmp/out.json"
mv "$tmp/out.json" "$out"
echo "pairs: wrote $out" >&2
