#!/usr/bin/env bash
# The docs name only what exists. In README.md and DESIGN.md:
#
#   - every internal/…, cmd/…, examples/… or scripts/… path written
#     inside backticks must exist, so a package, example or script that
#     is deleted or renamed cannot stay documented. A path may carry a
#     :line suffix or trailing punctuation; both are dropped;
#   - every backticked `pkg.Name`, `pkg.Type.Member` or `Type.Member`
#     (a trailing "()" is dropped) must be declared in the tree: pkg is
#     a Go package of the tree, Name one of its top-level declarations,
#     Member a method or field of Type. Test, Benchmark and Fuzz
#     functions resolve in the package's test files, everything else in
#     its other .go files. Names after a package with an underscore
#     (metric names, `relay.hop_ms_p50`), file names (`summary.json`),
#     and a lower-case first word that is no package of the tree (the
#     standard library, a local variable) are not checked.
#
#   scripts/docpaths.sh    # names each missing path or name; exit 1 if any
set -euo pipefail
cd "$(dirname "$0")/.."

missing=0
for doc in README.md DESIGN.md; do
  for path in $(grep -oE '`[^`]*`' "$doc" |
    grep -oE '(^|[^A-Za-z0-9_])(internal|cmd|examples|scripts)/[A-Za-z0-9_./-]*' |
    sed -E 's/^[^a-z]//; s/[.]+$//; s|/$||' | sort -u); do
    if [ ! -e "$path" ]; then
      echo "$doc: \`$path\` does not exist" >&2
      missing=1
    fi
  done
done

# One "pkg Name" or "pkg Type.Member" line per declaration.
index=$(find . -name '.?*' -prune -o -name '*-out' -prune -o -name '*.go' -print |
  xargs awk '
  FNR == 1 { pkg = ""; blk = ""; typ = ""; test = FILENAME ~ /_test\.go$/ }
  /^package / { pkg = $2; sub(/_test$/, "", pkg); next }
  test { if (match($0, /^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*/)) print pkg, substr($0, 6, RLENGTH - 5); next }
  /^\)/ { blk = ""; next }
  /^\}/ { typ = ""; next }
  blk != "" && match($0, /^\t[A-Za-z_][A-Za-z0-9_]*/) { print pkg, substr($0, 2, RLENGTH - 1); next }
  typ != "" && match($0, /^\t[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*/) {
    n = split(substr($0, 2, RLENGTH - 1), f, ", ")
    for (i = 1; i <= n; i++) print pkg, typ "." f[i]
    next
  }
  /^(var|const|type) \($/ { blk = $1; next }
  /^(var|const) [A-Za-z_]/ { n = $2; sub(/,$/, "", n); print pkg, n; next }
  /^type [A-Za-z_]/ {
    n = $2; sub(/\[.*/, "", n); print pkg, n
    if ($0 ~ /(struct|interface) \{$/) typ = n
    next
  }
  /^func [A-Za-z_]/ { n = $2; sub(/[\[(].*/, "", n); print pkg, n; next }
  /^func \(/ {
    r = $0; sub(/^func \(/, "", r); sub(/\).*/, "", r)
    n = split(r, w, " "); r = w[n]; sub(/^\*/, "", r); sub(/\[.*/, "", r)
    m = $0; sub(/^func \([^)]*\) */, "", m); sub(/[\[(].*/, "", m)
    print pkg, r "." m
  }' | sort -u)
pkgs=$(cut -d' ' -f1 <<<"$index" | sort -u)

for doc in README.md DESIGN.md; do
  for name in $(grep -oE '`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+(\(\))?`' "$doc" |
    tr -d '`' | sed 's/()$//' | sort -u); do
    IFS=. read -ra part <<<"$name"
    case "$name" in *.go | *.s | *.md | *.csv | *.json | *.txt | *.xml | *.par | *.png | *.sh | *.yml) continue ;; esac
    if grep -qx -- "${part[0]}" <<<"$pkgs"; then
      [[ "${part[1]}" == *_* ]] && continue
      want="${part[0]} ${part[1]}"
      [ "${#part[@]}" -gt 2 ] && want="$want.${part[2]}"
      grep -qxF -- "$want" <<<"$index" && continue
    elif [[ "${part[0]}" == [A-Z]* ]]; then
      grep -qE -- "^[a-z0-9]+ ${part[0]}\.${part[1]}\$" <<<"$index" && continue
    else
      continue
    fi
    echo "$doc: \`$name\` is declared nowhere in the tree" >&2
    missing=1
  done
done
[ "$missing" -eq 0 ] && echo "every documented path and name exists"
exit "$missing"
