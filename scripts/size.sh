#!/usr/bin/env bash
# The one way to count this tree (`make size`), so simplicity changes quote
# the same numbers.
#
#   scripts/size.sh [dir]      # dir defaults to the repo this script sits in
#
# Prints, for every Go package outside bench/ (the benchmark is its own module
# and not the program), the non-test and the test code lines — a code line is
# one that is neither blank nor only a comment — then the two totals, then the
# number of exported fields of the option structs a caller can set, each
# against its bound; the script exits 1 when a struct exceeds it.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' -not -path './bench/*' -not -path './.*' | xargs awk '
	FNR == 1 {
		block = 0
		pkg = FILENAME; sub(/^\.\//, "", pkg); sub(/\/?[^\/]*$/, "", pkg)
		if (pkg == "") pkg = "."
		test = FILENAME ~ /_test\.go$/
		code[pkg] += 0; tests[pkg] += 0
	}
	{
		line = $0
		gsub(/^[ \t]+|[ \t]+$/, "", line)
		if (block) { if (line ~ /\*\//) block = 0; next }
		if (line == "" || line ~ /^\/\//) next
		if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; next }
		if (test) tests[pkg]++; else code[pkg]++
	}
	END { for (pkg in code) print pkg, code[pkg], tests[pkg] }' | sort | awk '
	BEGIN { printf "%-28s %8s %8s\n", "package", "code", "test" }
	{ printf "%-28s %8d %8d\n", $1, $2, $3; code += $2; tests += $3 }
	END { printf "%-28s %8d %8d\n", "total (outside bench/)", code, tests }'

# Exported fields of `type <name> struct` in <file>: lines that open with an
# exported identifier (embedded types included), up to the closing brace. A
# missing file or struct is an error, not a zero.
fields() {
	[ -f "$1" ] || { echo "size.sh: $1: no such file" >&2; exit 1; }
	awk -v name="$2" '
		$1 == "type" && $2 == name && $3 == "struct" { found = 1; in_struct = 1; next }
		in_struct && /^}/ { exit }
		in_struct && /^\t[A-Z]/ { n++ }
		END { if (!found) exit 1; print n + 0 }' "$1" ||
		{ echo "size.sh: $1: no struct $2" >&2; exit 1; }
}
# row <label> <file> <struct> <max>: one table row; a struct with more exported
# fields than max fails the script once the table is printed, so a field that
# joins an option struct has to raise its bound here, in the same change.
over=""
row() {
	local n
	n=$(fields "$2" "$3")
	printf '%-28s %8d %8d\n' "$1" "$n" "$4"
	[ "$n" -le "$4" ] || over="$over $1 ($n > $4)"
}
echo
printf '%-28s %8s %8s\n' "struct" "fields" "max"
row reconfig.Options internal/reconfig/node.go Options 4
row paxos.Options internal/paxos/replica.go Options 1
row client.Options internal/client/client.go Options 5
row cluster.Config internal/cluster/cluster.go Config 6
row storage.WALStoreOptions internal/storage/walstore.go WALStoreOptions 1
row lincheck.Options internal/lincheck/lincheck.go Options 1
if [ -n "$over" ]; then
	echo "size.sh: more exported option fields than allowed:$over" >&2
	exit 1
fi
