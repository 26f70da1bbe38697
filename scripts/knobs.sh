#!/usr/bin/env bash
# Settable values: what a user can set, counted four ways and totalled,
# so the set-up surface cannot grow back unseen (the line ceiling of
# scripts/loc.sh, for knobs):
#
#   flags   each binary's flags as its -h lists them; a binary whose
#           usage names subcommands (archive replay|inspect) is counted
#           per subcommand
#   xml     each analysis type's XML attributes: the list its factory
#           hands sensei.CheckAttrs, plus, once, the ones every
#           analysis element carries (sensei's elementAttrs: type,
#           enabled, frequency, maxerror). A registered type whose factory makes no such
#           call, or a call whose lists are not string literals, fails
#   par     the [section] key pairs of a .par file that internal/nekrs
#           reads
#   fields  the exported fields of the exported option structs
#
#   scripts/knobs.sh          # the table
#   scripts/knobs.sh -check   # the table, then fail if TOTAL exceeds
#                             # its row of scripts/knobs.ceiling
set -euo pipefail
cd "$(dirname "$0")/.."

structs="adios.ReaderOptions relay.Options intransit.GroupConfig archive.ReplayOptions mesh.BoxConfig"

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/...

rows=()
row() { rows+=("$(printf '%-7s %-30s %4d' "$1" "$2" "$3")"); }

# flags
for exe in $(ls "$bin" | sort); do
  n=$("$bin/$exe" -h 2>&1 | grep -cE '^  -[a-z-]+' || true)
  subs=$("$bin/$exe" -h 2>&1 | grep -oE "usage: $exe [a-z]+(\|[a-z]+)+" | cut -d' ' -f3 | tr '|' ' ' || true)
  if [ "$n" -eq 0 ] && [ -n "$subs" ]; then
    for sub in $subs; do
      row flags "$exe $sub" "$("$bin/$exe" "$sub" -h 2>&1 | grep -cE '^  -[a-z-]+' || true)"
    done
  else
    row flags "$exe" "$n"
  fi
done

# xml
src=$(find internal cmd -name '*.go' ! -name '*_test.go')
calls=$(grep -h 'CheckAttrs(' $src | grep -vE '^\s*//|func CheckAttrs\(' || true)
bad=$(grep -vE '\bCheckAttrs\("[a-z-]+", attrs(, "[a-z-]+")*\)' <<<"$calls" || true)
if [ -n "$bad" ]; then
  echo "knobs: a CheckAttrs call whose type and attributes are not string literals:" >&2
  echo "$bad" >&2
  exit 1
fi
row xml "(every analysis element)" "$(grep -E '^var elementAttrs = ' internal/sensei/sensei.go | grep -oE '"[a-z-]+"' | wc -l)"
declare -A checked
while read -r typ attrs; do
  checked[$typ]=1
  row xml "$typ" "$(wc -w <<<"$attrs")"
done < <(grep -oE '\bCheckAttrs\("[a-z-]+", attrs(, "[a-z-]+")*\)' <<<"$calls" |
  sed -E 's/CheckAttrs\("([a-z-]+)", attrs/\1/; s/[",()]/ /g' | sort)
for typ in $(grep -ohE '\bRegister\("[a-z-]+"' $src | cut -d'"' -f2 | sort -u); do
  if [ -z "${checked[$typ]:-}" ]; then
    echo "knobs: analysis type \"$typ\" is registered, but no factory calls CheckAttrs(\"$typ\", ...)" >&2
    exit 1
  fi
done

# par
row par "internal/nekrs" "$(grep -ohE '\.Get(Float|Int|Bool|String)?\("[a-z]+", "[a-z]+"' $(grep '^internal/nekrs/' <<<"$src") |
  sort -u | wc -l)"

# fields: go doc prints exported fields only; "Nx, Ny, Nz int" is three
for s in $structs; do
  row fields "$s" "$(go doc "./internal/${s%%.*}" "${s#*.}" |
    awk '/^type .* struct \{/ { on = 1; next } on && /^\}/ { exit }
      on && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* /) { n += split(substr($0, 2, RLENGTH - 2), f, ", ") }
      END { print n + 0 }')"
done

table=$(printf '%s\n' "${rows[@]}")
echo "$table"
echo "$table" | awk '{ sum[$1] += $NF; total += $NF }
  END {
    for (k in sum) printf "%-38s %4d\n", toupper(k), sum[k] | "sort"
    close("sort")
    printf "%-38s %4d\n", "TOTAL", total
  }'

if [ "${1:-}" = -check ]; then
  total=$(echo "$table" | awk '{ t += $NF } END { print t }')
  ceiling=$(awk '$1 == "TOTAL" { print $NF }' scripts/knobs.ceiling)
  if [ "$total" -gt "$ceiling" ]; then
    echo "TOTAL grew: $total settable values > committed ceiling $ceiling (scripts/knobs.ceiling)" >&2
    exit 1
  fi
  echo "TOTAL: $total <= ceiling $ceiling"
fi
