#!/usr/bin/env bash
# recipes.sh — run every deployment recipe of README.md as printed.
#
# A recipe is a fenced block whose info string is `sh recipe`. It
# writes its XML with heredocs, builds bin/ with
# `go build -o bin/ ./cmd/...`, starts its processes with & and wait,
# and ends with its own check; its first line is a comment naming it
# ("# fanout: ..."). The binaries are built once; each recipe then runs
# in a fresh temporary directory whose bin/ is that build, so its
# `go build -o bin/ ./cmd/...` line has nothing left to do and is
# skipped. Every recipe runs under `set -eu` and `timeout 60`; on
# failure the script names the recipe and prints its output and every
# log it left. Recipes rendezvous through contact files on ephemeral
# ports, so they never collide with scripts/telemetry_smoke.sh.
#
# Usage: scripts/recipes.sh   (or `make recipes`)
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== building binaries"
go build -o "$work/bin/" ./cmd/...

awk -v dir="$work" '
    /^```sh recipe$/ { n++; file = sprintf("%s/recipe-%02d.sh", dir, n); inside = 1; next }
    inside && /^```$/ { inside = 0; close(file); next }
    inside { print > file }
' README.md

# What runs before each recipe: strict mode naming the line that
# failed, the shared build standing in for the recipe's own, and no
# process outliving the recipe.
cat > "$work/prelude.sh" <<'EOF'
set -eu
trap 'echo "recipe line $LINENO failed: $BASH_COMMAND" >&2' ERR
go() {
    if [ "$*" = "build -o bin/ ./cmd/..." ]; then return 0; fi
    command go "$@"
}
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT
EOF

count=0
for recipe in "$work"/recipe-*.sh; do
    [ -e "$recipe" ] || break
    count=$((count + 1))
    name=$(sed -n '1s/^# \([^:]*\):.*/\1/p' "$recipe")
    dir="$work/run-$count"
    mkdir -p "$dir"
    ln -s "$work/bin" "$dir/bin"
    echo "== recipe $name"
    start=$(date +%s%N)
    status=0
    (cd "$dir" && timeout 60 bash -c '. "$1"; . "$2"' recipe "$work/prelude.sh" "$recipe") \
        >"$dir/recipe.out" 2>&1 || status=$?
    if [ "$status" -eq 0 ]; then
        echo "ok: $name ($(( ($(date +%s%N) - start) / 1000000 )) ms)"
        continue
    fi
    [ "$status" -eq 124 ] && status="124, timed out after 60s"
    echo "FAIL: recipe \"$name\" (exit $status)"
    echo "--- its output"
    cat "$dir/recipe.out"
    find "$dir" -name '*.log' | sort | while read -r log; do
        echo "--- ${log#"$dir"/}"
        cat "$log"
    done
    exit 1
done
[ "$count" -gt 0 ] || { echo "FAIL: no \`sh recipe\` block in README.md"; exit 1; }
echo "all $count recipes passed"
