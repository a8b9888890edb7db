#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark, as one command.
#
#   scripts/pairs.sh <parent-ref> <workload>[,<workload>...] <n> [seconds] [out.json]
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git and nothing is left behind), then runs the benchmark
# driver's exact command — go run -C bench repro/bench --workload W --seconds S
# --seed N — on the parent and on this tree <n> times each, alternating which
# side goes first and giving every pair a fresh seed. It writes the file named
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
# plus the runner facts without which two files must never be compared.
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
	printf '{\n "parent_commit": "%s",\n "change_commit": "%s",\n "change_dirty": %s,\n' \
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
		if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
		for side in $order; do
			tree=$repo
			[ "$side" = parent ] && tree=$tmp/parent
			run_one "$tree" "$wl" "$seed" | sed "s/^/$seed $side /" >>"$tmp/rows.txt"
		done
		echo "pairs: $wl pair $i/$pairs seed $seed:$(awk -v s="$seed" '
			$1 != s { next }
			$2 == "parent" { p[$3] = ($3 == "ops") ? $5 "/" $4 : $4; next }
			$3 == "ops" { printf " failed %s -> %s/%s;", p["ops"], $5, $4; next }
			{ printf " %s %s -> %s;", $3, p[$3], $4 }' \
			<(sort -s -k2,2r "$tmp/rows.txt"))" >&2
	done
	[ $first_wl -eq 1 ] || echo ' ,' >>"$tmp/out.json"
	first_wl=0
	awk -v wl="$wl" -v pairs="$pairs" '
	function quantile(a, n, p,    h, f, q) { # a[1..n] sorted; linear interpolation
		h = (n - 1) * p + 1; f = int(h); q = a[f]
		if (f < n) q += (h - f) * (a[f + 1] - a[f])
		return q
	}
	function sorted(src, n, dst,    i, j, v) {
		for (i = 1; i <= n; i++) {
			v = src[i]
			for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
			dst[j + 1] = v
		}
	}
	!($1 in seen) { seen[$1] = 1; seeds[++ns] = $1 }
	$3 == "ops" { att[$2, $1] = $4; fail[$2, $1] = $5; satt[$2] += $4; sfail[$2] += $5; next }
	{
		if (!($3 in bound)) { names[++nm] = $3; bound[$3] = $5; better[$3] = $6 }
		val[$3, $2, $1] = $4
	}
	function share(side) { return satt[side] ? sfail[side] / satt[side] : 0 }
	END {
		printf "  {\"workload\": \"%s\",\n   \"failed_share\": {\"parent\": %.6g, \"change\": %.6g},\n   \"ops\": [\n", wl, share("parent"), share("change")
		for (i = 1; i <= ns; i++)
			printf "    {\"seed\": %s, \"parent\": {\"attempted\": %d, \"failed\": %d}, \"change\": {\"attempted\": %d, \"failed\": %d}}%s\n", \
				seeds[i], att["parent", seeds[i]], fail["parent", seeds[i]], att["change", seeds[i]], fail["change", seeds[i]], (i < ns ? "," : "")
		printf "   ],\n   \"metrics\": [\n"
		printf "pairs: %s failed share: parent %d/%d, change %d/%d\n", \
			wl, sfail["parent"], satt["parent"], sfail["change"], satt["change"] >"/dev/stderr"
		for (m = 1; m <= nm; m++) {
			name = names[m]; sign = (better[name] == "higher") ? -1 : 1
			wins = losses = 0; allbetter = 1
			delete p; delete c; delete ps; delete cs
			printf "   {\"metric\": \"%s\", \"better\": \"%s\", \"bound\": %s, \"pairs\": [\n", name, better[name], bound[name]
			for (i = 1; i <= ns; i++) {
				p[i] = val[name, "parent", seeds[i]]; c[i] = val[name, "change", seeds[i]]
				if (sign * (c[i] - p[i]) < 0) wins++
				if (sign * (c[i] - p[i]) > 0) losses++
				printf "     {\"seed\": %s, \"parent\": %s, \"change\": %s}%s\n", seeds[i], p[i], c[i], (i < ns ? "," : "")
			}
			sorted(p, ns, ps); sorted(c, ns, cs)
			pm = quantile(ps, ns, 0.5); pq1 = quantile(ps, ns, 0.25); pq3 = quantile(ps, ns, 0.75)
			cm = quantile(cs, ns, 0.5); cq1 = quantile(cs, ns, 0.25); cq3 = quantile(cs, ns, 0.75)
			# every run of the change better than every run of the parent?
			if (sign > 0) allbetter = (cs[ns] < ps[1]); else allbetter = (cs[1] > ps[ns])
			improvement = sign * (pm - cm)
			if (wins >= 0.9 * ns && improvement > pq3 - pq1) verdict = "gain"
			else if (pm != 0 && (pq3 - pq1) / pm > bound[name] && !allbetter) verdict = "unresolved"
			else if (pm != 0 && -improvement / pm > bound[name]) verdict = "regression"
			else verdict = "within_bound"
			printf "     ],\n     \"parent\": {\"median\": %.6f, \"q1\": %.6f, \"q3\": %.6f},\n", pm, pq1, pq3
			printf "     \"change\": {\"median\": %.6f, \"q1\": %.6f, \"q3\": %.6f},\n", cm, cq1, cq3
			printf "     \"median_change_frac\": %.4f, \"change_wins\": %d, \"change_losses\": %d, \"verdict\": \"%s\"}%s\n", \
				(pm != 0 ? (cm - pm) / pm : 0), wins, losses, verdict, (m < nm ? "," : "")
			printf "pairs: %s %s: parent median %.6g [%.6g, %.6g], change median %.6g [%.6g, %.6g], change won %d/%d, %s\n", \
				wl, name, pm, pq1, pq3, cm, cq1, cq3, wins, ns, verdict >"/dev/stderr"
		}
		printf "   ]}\n"
	}' "$tmp/rows.txt" >>"$tmp/out.json"
done
printf ' ]\n}\n' >>"$tmp/out.json"
mv "$tmp/out.json" "$out"
echo "pairs: wrote $out" >&2
