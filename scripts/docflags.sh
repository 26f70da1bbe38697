#!/usr/bin/env bash
# README.md's process-flag table (the one whose header row starts
# "| flag |") says which binary takes which flag. Every ✓ must be a flag
# that binary's -h lists, and every row's flag that a binary's -h lists
# must be a ✓ in that binary's column, so the table cannot drift from
# the flags the mains register.
#
#   scripts/docflags.sh    # names each mismatch; exit 1 if any
set -euo pipefail
cd "$(dirname "$0")/.."

table=$(awk '/^\| flag \|/ { on = 1 } on && !/^\|/ { exit } on' README.md)
if [ -z "$table" ]; then
  echo "README.md: no '| flag |' table" >&2
  exit 1
fi

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/...

# Header cells 2.. name the binaries in backticks, e.g. `archive replay`.
IFS='|' read -ra head <<<"$(head -n 1 <<<"$table")"
declare -A flags
for ((j = 2; j < ${#head[@]}; j++)); do
  read -r exe sub <<<"${head[j]//\`/}"
  # shellcheck disable=SC2086 # sub is the optional subcommand word
  flags[$j]=$("$bin/$exe" $sub -h 2>&1 | grep -oE '^  -[a-z-]+' | tr -d ' ' || true)
done

bad=0
while IFS='|' read -ra cell; do
  flag=$(grep -oE -- '`-[a-z-]+`' <<<"${cell[1]}" | tr -d '`' | head -n 1 || true)
  if [ -z "$flag" ]; then
    echo "README.md: flag table row without a \`-flag\`: ${cell[*]}" >&2
    bad=1
    continue
  fi
  for ((j = 2; j < ${#head[@]}; j++)); do
    c="${cell[j]:-}"
    c="${c#"${c%%[![:space:]]*}"}"
    marked=no listed=no
    [[ "$c" == ✓* ]] && marked=yes
    grep -qx -- "$flag" <<<"${flags[$j]}" && listed=yes
    if [ "$marked" != "$listed" ]; then
      name=$(xargs <<<"${head[j]//\`/}")
      if [ "$marked" = yes ]; then
        echo "README.md: $flag is ✓ for $name, whose -h does not list it" >&2
      else
        echo "README.md: $name -h lists $flag, but its column has no ✓" >&2
      fi
      bad=1
    fi
  done
done < <(tail -n +3 <<<"$table")
[ "$bad" -eq 0 ] && echo "the flag table matches every binary's -h"
exit "$bad"
