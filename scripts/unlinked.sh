#!/usr/bin/env bash
# Lists the non-test functions and methods declared under internal/ and
# pkg/ that no binary links.
#
#   bash scripts/unlinked.sh
#
# Run from the repository root. The binaries are every main package under
# cmd/ and examples/ plus perfbench, built with inlining off
# (-gcflags=all=-l) so that a call survives as a symbol; `go tool nm`
# then lists what the linker kept. Names in scripts/unlinked-allowlist.txt
# (one "pkg.Name" or "pkg.Type.Method" a line, each followed by " # reason")
# are left out. The output is informational: the script exits 0 whatever
# it prints, and 1 only when a build fails or an allowlist entry has no
# reason.
set -euo pipefail

root=$(pwd)
allow="$root/scripts/unlinked-allowlist.txt"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mod=$(go list -m)

# Every allowlist entry must carry a reason.
if grep -Ev '^[[:space:]]*(#|$)' "$allow" | grep -Ev '^[^#[:space:]]+[[:space:]]+#[[:space:]]*[^[:space:]]' >&2; then
	echo "unlinked.sh: the allowlist entries above have no reason" >&2
	exit 1
fi

for dir in cmd/*/ examples/*/; do
	dir=${dir%/}
	go build -gcflags=all=-l -o "$work/bin/$(basename "$dir")" "./$dir"
done
(cd perfbench && GOFLAGS=-mod=mod GOWORK=off go build -gcflags=all=-l -o "$work/bin/perfbench" .)

# Linked symbols, normalized to pkg.Name or pkg.Type.Method: pointer
# receivers "(*T)" become "T", and closures (".func1") and wrappers
# ("-fm") name the function they belong to.
for bin in "$work"/bin/*; do
	go tool nm "$bin" | awk '$2 == "T" || $2 == "t" { print $3 }'
done |
	grep "^$mod/\(internal\|pkg\)/" |
	sed -e 's/\[.*\]//' -e 's/(\*\([A-Za-z0-9_]*\))/\1/' -e 's/\.func[0-9.]*$//' -e 's/-fm$//' |
	sort -u >"$work/linked"

# Declared functions, in the same form: the import path, then the
# receiver type if any, then the name.
find internal pkg -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	pkg="$mod/$(dirname "$f")"
	sed -n -e 's/^func (\([^)]*[ *]\)\{0,1\}\([A-Za-z0-9_]*\)) \([A-Za-z0-9_]*\)[[(].*/\2.\3/p' \
		-e 's/^func \([A-Za-z0-9_]*\)[[(].*/\1/p' "$f" |
		sed -e '/^init$/d' -e "s|^|$pkg.|"
done | sort -u >"$work/declared"

awk '$1 !~ /^#/ && NF { print "'"$mod/"'" $1 }' "$allow" | sort -u >"$work/allowed"

comm -23 "$work/declared" "$work/linked" >"$work/unlinked"
comm -23 "$work/unlinked" "$work/allowed" | sed "s|^$mod/||" >"$work/report"

declared=$(wc -l <"$work/declared")
unlinked=$(wc -l <"$work/unlinked")
listed=$(wc -l <"$work/report")
echo "declared $declared, unlinked $unlinked, off the allowlist $listed"
cat "$work/report"

# An allowlist entry that a binary now links is stale.
comm -12 "$work/allowed" "$work/linked" | sed "s|^$mod/|allowlisted but linked: |"
