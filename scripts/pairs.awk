# The verdict arithmetic of scripts/pairs.sh: one workload's rows in, its JSON
# block out (and a summary on stderr).
#
#   awk -v wl=<workload> -f scripts/pairs.awk rows.txt
#
# A row is "seed side name value bound better" or "seed side ops attempted
# failed"; side is parent, change or, when the ledger has an anchor, anchor.
# The change is compared with the parent and, when anchor rows are present,
# with the anchor, by one rule (verdict below). scripts/pairs_test.sh checks it
# on the fixture rows in scripts/testdata/.

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
function share(side) { return satt[side] ? sfail[side] / satt[side] : 0 }

# verdict compares the change's runs of metric name with side base's, seed by
# seed, by the choosing-metrics rule:
#
#   gain          the change won >= 9/10 of the seeds and the medians differ by
#                 more than the distance between base's quartiles
#   unresolved    not a gain, and base's quartiles lie further apart than the
#                 metric's bound: the runner cannot tell "unchanged" from
#                 "worse" here
#   regression    the change's median is worse than base's by more than the
#                 bound
#   within_bound  none of the above
#
# It sets bm, bq1, bq3 (base), cm, cq1, cq3 (change), wins, losses, frac and
# the returned verdict.
function verdict(name, base,    sign, i, b, c, bs, cs, allbetter, improvement) {
	sign = (better[name] == "higher") ? -1 : 1
	wins = losses = 0
	for (i = 1; i <= ns; i++) {
		b[i] = val[name, base, seeds[i]]; c[i] = val[name, "change", seeds[i]]
		if (sign * (c[i] - b[i]) < 0) wins++
		if (sign * (c[i] - b[i]) > 0) losses++
	}
	sorted(b, ns, bs); sorted(c, ns, cs)
	bm = quantile(bs, ns, 0.5); bq1 = quantile(bs, ns, 0.25); bq3 = quantile(bs, ns, 0.75)
	cm = quantile(cs, ns, 0.5); cq1 = quantile(cs, ns, 0.25); cq3 = quantile(cs, ns, 0.75)
	frac = (bm != 0 ? (cm - bm) / bm : 0)
	# every run of the change better than every run of base?
	if (sign > 0) allbetter = (cs[ns] < bs[1]); else allbetter = (cs[1] > bs[ns])
	improvement = sign * (bm - cm)
	if (wins >= 0.9 * ns && improvement > bq3 - bq1) return "gain"
	if (bm != 0 && (bq3 - bq1) / bm > bound[name] && !allbetter) return "unresolved"
	if (bm != 0 && -improvement / bm > bound[name]) return "regression"
	return "within_bound"
}

!($1 in seen) { seen[$1] = 1; seeds[++ns] = $1 }
$2 == "anchor" { anchored = 1 }
$3 == "ops" { att[$2, $1] = $4; fail[$2, $1] = $5; satt[$2] += $4; sfail[$2] += $5; next }
{
	if (!($3 in bound)) { names[++nm] = $3; bound[$3] = $5; better[$3] = $6 }
	val[$3, $2, $1] = $4
}

END {
	printf "  {\"workload\": \"%s\",\n   \"failed_share\": {\"parent\": %.6g, \"change\": %.6g%s},\n   \"ops\": [\n", wl, share("parent"), share("change"),
		(anchored ? sprintf(", \"anchor\": %.6g", share("anchor")) : "")
	for (i = 1; i <= ns; i++)
		printf "    {\"seed\": %s, \"parent\": {\"attempted\": %d, \"failed\": %d}, \"change\": {\"attempted\": %d, \"failed\": %d}%s}%s\n", \
			seeds[i], att["parent", seeds[i]], fail["parent", seeds[i]], att["change", seeds[i]], fail["change", seeds[i]], \
			(anchored ? sprintf(", \"anchor\": {\"attempted\": %d, \"failed\": %d}", att["anchor", seeds[i]], fail["anchor", seeds[i]]) : ""), \
			(i < ns ? "," : "")
	printf "   ],\n   \"metrics\": [\n"
	printf "pairs: %s failed share: parent %d/%d, change %d/%d%s\n", \
		wl, sfail["parent"], satt["parent"], sfail["change"], satt["change"], \
		(anchored ? sprintf(", anchor %d/%d", sfail["anchor"], satt["anchor"]) : "") >"/dev/stderr"
	for (m = 1; m <= nm; m++) {
		name = names[m]
		printf "   {\"metric\": \"%s\", \"better\": \"%s\", \"bound\": %s, \"pairs\": [\n", name, better[name], bound[name]
		for (i = 1; i <= ns; i++)
			printf "     {\"seed\": %s, \"parent\": %s, \"change\": %s%s}%s\n", seeds[i], val[name, "parent", seeds[i]], val[name, "change", seeds[i]], \
				(anchored ? ", \"anchor\": " val[name, "anchor", seeds[i]] : ""), (i < ns ? "," : "")
		v = verdict(name, "parent")
		printf "     ],\n     \"parent\": {\"median\": %.6f, \"q1\": %.6f, \"q3\": %.6f},\n", bm, bq1, bq3
		printf "     \"change\": {\"median\": %.6f, \"q1\": %.6f, \"q3\": %.6f},\n", cm, cq1, cq3
		printf "     \"median_change_frac\": %.4f, \"change_wins\": %d, \"change_losses\": %d, \"verdict\": \"%s\"", frac, wins, losses, v
		printf "pairs: %s %s: parent median %.6g [%.6g, %.6g], change median %.6g [%.6g, %.6g], change won %d/%d, %s\n", \
			wl, name, bm, bq1, bq3, cm, cq1, cq3, wins, ns, v >"/dev/stderr"
		if (anchored) {
			v = verdict(name, "anchor")
			printf ",\n     \"vs_anchor\": {\"anchor\": {\"median\": %.6f, \"q1\": %.6f, \"q3\": %.6f},\n", bm, bq1, bq3
			printf "      \"median_change_frac\": %.4f, \"change_wins\": %d, \"change_losses\": %d, \"verdict\": \"%s\"}", frac, wins, losses, v
			printf "pairs: %s %s: anchor median %.6g [%.6g, %.6g], change won %d/%d against it, %s\n", \
				wl, name, bm, bq1, bq3, wins, ns, v >"/dev/stderr"
		}
		printf "}%s\n", (m < nm ? "," : "")
	}
	printf "   ]}\n"
}
