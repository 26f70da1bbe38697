#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark, then the
# benchmark's own -compare over the two result directories: the
# procedure benchmark/README.md prescribes for claiming a gain. Both
# sides run the driver's command (benchmark/run.sh) in their own tree,
# so each builds what it runs from its own source; the order within a
# pair alternates so both sides see the same machine.
#
#   scripts/bench_e2e.sh                      # 10 pairs of pb146-solve against HEAD~1
#   BASE=main PAIRS=10 WORKLOADS="pb146-solve pb146-mesh-replay" scripts/bench_e2e.sh
set -euo pipefail
cd "$(dirname "$0")/.."

base=${BASE:-HEAD~1}
pairs=${PAIRS:-10}
workloads=${WORKLOADS:-pb146-solve}
seconds=${RUN_SECONDS:-25}
out=${OUT:-bench-out/e2e}

rm -rf "$out"
mkdir -p "$out/parent-src" "$out/parent" "$out/change"
out=$(cd "$out" && pwd)
git archive "$base" | tar -x -C "$out/parent-src"

for w in $workloads; do
  for i in $(seq 1 "$pairs"); do
    if (( i % 2 )); then order="parent change"; else order="change parent"; fi
    for side in $order; do
      tree=.
      if [ "$side" = parent ]; then tree="$out/parent-src"; fi
      echo "pair $i/$pairs  $w  $side" >&2
      bash "$tree/benchmark/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" \
        --trace 0 --out "$out/$side" | tail -n 1 | cut -c1-200 >&2
    done
  done
done

go run ./benchmark -compare "$out/parent" "$out/change"
