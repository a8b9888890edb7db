#!/usr/bin/env bash
# The one way to count this tree (`make size`), so simplicity changes quote
# the same numbers.
#
#   scripts/size.sh [dir]      # dir defaults to the repo this script sits in
#
# Prints, for every Go package outside bench/ (the benchmark is its own module
# and not the program), the non-test and the test code lines — a code line is
# one that is neither blank nor only a comment — then the two totals, then the
# number of exported fields of the option structs a caller can set.
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
# exported identifier (embedded types included), up to the closing brace.
fields() {
	awk -v name="$2" '
		$1 == "type" && $2 == name && $3 == "struct" { in_struct = 1; next }
		in_struct && /^}/ { exit }
		in_struct && /^\t[A-Z]/ { n++ }
		END { print n + 0 }' "$1"
}
echo
printf '%-28s %8s\n' "struct" "fields"
printf '%-28s %8d\n' reconfig.Options "$(fields internal/reconfig/node.go Options)"
printf '%-28s %8d\n' paxos.Options "$(fields internal/paxos/replica.go Options)"
printf '%-28s %8d\n' client.Options "$(fields internal/client/client.go Options)"
printf '%-28s %8d\n' cluster.Config "$(fields internal/cluster/cluster.go Config)"
printf '%-28s %8d\n' harness.Tuning "$(fields internal/harness/deployment.go Tuning)"
