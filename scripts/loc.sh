#!/usr/bin/env bash
# Non-test Go lines per package, one table: every .go file that is not
# a _test.go and does not carry the "Code generated" header, counted
# with wc -l and grouped by directory. The last rows are the whole tree
# and WIRE-PATH, the sum over internal/{adios,staging,relay,intransit}
# that ROADMAP item 4 wants smaller.
#
#   scripts/loc.sh            # the table
#   scripts/loc.sh -check     # the table, then fail if either sum
#                             # exceeds its row of scripts/loc.ceiling
set -euo pipefail
cd "$(dirname "$0")/.."

table=$(find . -name '.?*' -prune -o -name '*-out' -prune -o -name '*.go' ! -name '*_test.go' -print |
  sed 's|^\./||' | while read -r f; do
  head -n 5 "$f" | grep -q '^// Code generated' && continue
  printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
done | awk '
  { n[$1] += $2; total += $2 }
  $1 ~ /^internal\/(adios|staging|relay|intransit)$/ { wire += $2 }
  END {
    for (p in n) printf "%-28s %7d\n", p, n[p] | "sort"
    close("sort")
    printf "%-28s %7d\n", "TOTAL", total
    printf "%-28s %7d\n", "WIRE-PATH", wire
  }')
echo "$table"

if [ "${1:-}" = -check ]; then
  for row in WIRE-PATH TOTAL; do
    lines=$(echo "$table" | awk -v row="$row" '$1 == row { print $NF }')
    ceiling=$(awk -v row="$row" '$1 == row { print $NF }' scripts/loc.ceiling)
    if [ "$lines" -gt "$ceiling" ]; then
      echo "$row grew: $lines non-test lines > committed ceiling $ceiling (scripts/loc.ceiling)" >&2
      exit 1
    fi
    echo "$row: $lines <= ceiling $ceiling"
  done
fi
