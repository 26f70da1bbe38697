#!/usr/bin/env bash
# telemetry_smoke.sh — curl-smoke the live telemetry plane end to end.
#
# Starts a real producer (cmd/nekrs staging a case over the SST wire)
# and a real consumer (cmd/sensei-endpoint) with -telemetry enabled on
# both, rendezvousing through a contact directory, then asserts while
# they run that every observability endpoint answers: /metrics carries
# the staging/SST series, the producer's /statusz carries the
# staging-hub section with per-consumer lag and the solver section
# naming the tensor kernel path, the endpoint's /statusz
# carries a step trace with consumer-side stages, /debug/pprof/profile
# produces a CPU profile on each process, and meshtop -once joins the
# two processes' traces into one step timeline with a bottleneck
# verdict.
#
# Phase 2 boots a 2-tier relay tree (nekrs -> relay -> endpoint) in a
# shared contact directory with -telemetry on all three, then asserts
# the mesh observatory over it: /meshz reports every process in the
# topology and at least one complete cross-tier step timeline (>= 6
# stages spanning >= 3 processes), and meshtop -once renders it, the
# relay's tier (relay/0, read off its edge from the producer) included.
#
# Usage: scripts/telemetry_smoke.sh   (from the repo root)
set -eu

PROD=127.0.0.1:19301
CONS=127.0.0.1:19302
PROD2=127.0.0.1:19303
RELAY2=127.0.0.1:19304
CONS2=127.0.0.1:19305

workdir=$(mktemp -d)
sim_pid=""
ep_pid=""
relay_pid=""
cleanup() {
    [ -n "$ep_pid" ] && kill "$ep_pid" 2>/dev/null || true
    [ -n "$relay_pid" ] && kill "$relay_pid" 2>/dev/null || true
    [ -n "$sim_pid" ] && kill "$sim_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "== building binaries"
go build -o "$workdir/nekrs" ./cmd/nekrs
go build -o "$workdir/sensei-endpoint" ./cmd/sensei-endpoint
go build -o "$workdir/relay" ./cmd/relay
go build -o "$workdir/meshtop" ./cmd/meshtop

mesh1="$workdir/mesh1"
cat > "$workdir/staging.xml" <<EOF
<sensei>
  <analysis type="staging" frequency="1" contact="sim" contact-dir="$mesh1"
            consumers="smoke:block:4" arrays="pressure"/>
</sensei>
EOF

cat > "$workdir/endpoint.xml" <<EOF
<sensei>
  <analysis type="histogram" mesh="mesh" array="pressure" bins="16" frequency="1"/>
</sensei>
EOF

echo "== starting producer (nekrs) with -telemetry $PROD"
"$workdir/nekrs" -case tgv -ranks 2 -steps 80 -refine 1 -order 2 \
    -sensei "$workdir/staging.xml" -out "$workdir/nekrs-out" \
    -log-every 0 -telemetry "$PROD" >"$workdir/nekrs.log" 2>&1 &
sim_pid=$!

for _ in $(seq 1 100); do
    [ -s "$mesh1/sim.contact" ] && break
    kill -0 "$sim_pid" 2>/dev/null || { cat "$workdir/nekrs.log"; echo "producer died before rendezvous"; exit 1; }
    sleep 0.1
done
[ -s "$mesh1/sim.contact" ] || { echo "contact entry never appeared"; exit 1; }

echo "== starting endpoint (sensei-endpoint) with -telemetry $CONS"
"$workdir/sensei-endpoint" -contact-dir "$mesh1" -contact sim \
    -config "$workdir/endpoint.xml" -consumer smoke:block:4 \
    -step-delay 100ms -out "$workdir/ep-out" \
    -telemetry "$CONS" >"$workdir/endpoint.log" 2>&1 &
ep_pid=$!

# fetch URL SUBSTRING — retry until the body contains the marker.
fetch() {
    url=$1 substr=$2
    for _ in $(seq 1 60); do
        if body=$(curl -fsS "$url" 2>/dev/null); then
            if [ -z "$substr" ] || printf '%s' "$body" | grep -q "$substr"; then
                echo "ok: $url${substr:+ (found: $substr)}"
                return 0
            fi
        fi
        sleep 0.2
    done
    echo "FAIL: $url never served${substr:+ marker \"$substr\"}"
    exit 1
}

fetch "http://$PROD/metrics" "staging_published_steps_total"
fetch "http://$PROD/statusz" "staging-hub"
fetch "http://$PROD/statusz" '"lag"'
fetch "http://$PROD/statusz" '"kernels"' # the solver section: which tensor kernels run
fetch "http://$CONS/metrics" "sst_reader_steps_total"
fetch "http://$CONS/statusz" '"deliver"'
fetch "http://$CONS/statusz" '"analyze"'

echo "== capturing 1s CPU profiles"
curl -fsS -o "$workdir/prod.pprof" "http://$PROD/debug/pprof/profile?seconds=1"
curl -fsS -o "$workdir/cons.pprof" "http://$CONS/debug/pprof/profile?seconds=1"
for p in prod cons; do
    [ -s "$workdir/$p.pprof" ] || { echo "FAIL: empty $p CPU profile"; exit 1; }
done
echo "ok: pprof profiles on both processes"

# check_meshtop DIR OUT MARKER... — one meshtop snapshot of the live
# mesh must contain every marker.
check_meshtop() {
    dir=$1 out=$2
    shift 2
    "$workdir/meshtop" -contact-dir "$dir" -once > "$out"
    for marker in "$@"; do
        grep -q -- "$marker" "$out" || {
            echo "FAIL: meshtop output missing \"$marker\""
            cat "$out"
            exit 1
        }
    done
}

echo "== meshtop -once: the producer + endpoint timeline"
check_meshtop "$mesh1" "$workdir/meshtop1.out" \
    "meshtop — 2 process" "producer" "observer" "smoke" "step timeline" "bottleneck:"
echo "ok: meshtop joined both processes' traces"

echo "== waiting for clean exits"
wait "$ep_pid"; ep_pid=""
wait "$sim_pid"; sim_pid=""

echo "== phase 2: 2-tier relay tree + mesh observatory"
mesh="$workdir/mesh"
mkdir -p "$mesh"

cat > "$workdir/staging2.xml" <<EOF
<sensei>
  <analysis type="staging" frequency="1" contact="sim" contact-dir="$mesh"
            consumers="relay:block:4" arrays="pressure"/>
</sensei>
EOF

"$workdir/nekrs" -case tgv -ranks 2 -steps 200 -refine 1 -order 2 \
    -sensei "$workdir/staging2.xml" -out "$workdir/nekrs2-out" \
    -log-every 0 -telemetry "$PROD2" >"$workdir/nekrs2.log" 2>&1 &
sim_pid=$!

for _ in $(seq 1 100); do
    [ -s "$mesh/sim.contact" ] && break
    kill -0 "$sim_pid" 2>/dev/null || { cat "$workdir/nekrs2.log"; echo "producer died before rendezvous"; exit 1; }
    sleep 0.1
done
[ -s "$mesh/sim.contact" ] || { echo "mesh contact entry never appeared"; exit 1; }
grep -q "#telemetry=" "$mesh/sim.contact" || {
    echo "FAIL: producer contact entry lacks the #telemetry= stamp"
    cat "$mesh/sim.contact"
    exit 1
}

"$workdir/relay" -contact-dir "$mesh" -upstream sim -publish tier1 \
    -consumer relay -out-ranks 1 -consumers smoke:block:4 \
    -telemetry "$RELAY2" >"$workdir/relay.log" 2>&1 &
relay_pid=$!

"$workdir/sensei-endpoint" -contact-dir "$mesh" -contact tier1 \
    -config "$workdir/endpoint.xml" -consumer smoke:block:4 \
    -step-delay 50ms -out "$workdir/ep2-out" \
    -telemetry "$CONS2" >"$workdir/endpoint2.log" 2>&1 &
ep_pid=$!

# fetch_jq URL JQ_EXPR — retry until the expression evaluates true.
fetch_jq() {
    url=$1 expr=$2 label=$3
    for _ in $(seq 1 100); do
        if body=$(curl -fsS "$url" 2>/dev/null); then
            if [ "$(printf '%s' "$body" | jq "$expr" 2>/dev/null)" = "true" ]; then
                echo "ok: $url ($label)"
                return 0
            fi
        fi
        sleep 0.2
    done
    echo "FAIL: $url never satisfied $label ($expr)"
    curl -fsS "$url" 2>/dev/null | jq '{processes: [.processes[].entry], edges: [.edges[] | {from, consumer, to}], steps: [.steps[] | {step, stages, processes}]}' || true
    exit 1
}

# Every tier is in the crawled topology: producer, relay, and the
# endpoint's telemetry-only observer entry.
fetch_jq "http://$PROD2/meshz" '.processes | length >= 3' "topology has >= 3 processes"
# At least one step's timeline is complete across the tree: >= 6 stage
# stamps spanning >= 3 processes.
fetch_jq "http://$PROD2/meshz" \
    '[.steps[] | select(.stages >= 6 and .processes >= 3)] | length >= 1' \
    "a cross-tier step timeline spans the tree"
# The relay serves the same mesh view from its own exporter.
fetch_jq "http://$RELAY2/meshz" '.processes | length >= 3' "relay serves /meshz too"
# The merged recovery journal is reachable (the clean run may have no
# events; the endpoint must answer with a valid document).
fetch "http://$CONS2/eventz" '"total_events"'

echo "== meshtop -once against the live tree"
check_meshtop "$mesh" "$workdir/meshtop.out" "meshtop —" "sim" "tier1" "relay/0" "step timeline"
echo "ok: meshtop rendered the topology and timeline"

echo "== waiting for clean exits"
wait "$ep_pid"; ep_pid=""
wait "$relay_pid"; relay_pid=""
wait "$sim_pid"; sim_pid=""

echo "telemetry smoke passed"
