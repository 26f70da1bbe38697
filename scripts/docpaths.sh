#!/usr/bin/env bash
# Every internal/…, cmd/…, examples/… or scripts/… path that README.md
# or DESIGN.md writes inside backticks must exist, so a package, example
# or script that is deleted or renamed cannot stay documented. A path
# may carry a :line suffix or trailing punctuation; both are dropped.
#
#   scripts/docpaths.sh    # names each missing path; exit 1 if any
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
[ "$missing" -eq 0 ] && echo "every documented path exists"
exit "$missing"
