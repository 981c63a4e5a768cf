#!/usr/bin/env bash
# Chaos soak: mpsim_cli must survive seeded randomized fault storms —
# transient kernel faults, minute-long hangs rescued by the watchdog,
# probabilistic slowdowns, a mid-run kill resumed from its checkpoint,
# node crashes, a stalled node and a hang before the watchdog is
# calibrated — and still emit a byte-identical profile CSV to the clean
# run every time.  Driven by CTest; $1 = build dir with the tools.
set -euo pipefail
BUILD=$1
WORK=$(mktemp -d)
CLI="$BUILD/tools/mpsim_cli"

cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "chaos_soak_test FAILED (exit $status) at line ${FAILED_LINE:-?}" >&2
    for f in "$WORK"/*.log; do
      [ -f "$f" ] || continue
      echo "--- $f:" >&2
      cat "$f" >&2
    done
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap 'FAILED_LINE=$LINENO' ERR
trap cleanup EXIT

awk 'BEGIN {
  srand(11); print "a,b";
  for (t = 0; t < 600; ++t) {
    a = sin(t / 7.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 11.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/ref.csv"

COMMON=(--reference="$WORK/ref.csv" --self-join --window=32 --tiles=6
        --devices=2 --motifs=0)

"$CLI" "${COMMON[@]}" --output="$WORK/clean.csv" > "$WORK/clean.log"

# --- Leg 1: mid-run kill + resume (with a transient kernel fault on top).
# The in-process kill behaves exactly like SIGTERM: graceful checkpoint
# flush and exit 130.  A fast run may commit everything before the monitor
# observes the request, in which case it exits 0 with a complete journal —
# both are valid chaos outcomes, and the resumed run must converge to the
# clean bytes either way.
status=0
"$CLI" "${COMMON[@]}" --checkpoint="$WORK/run.ckpt" --checkpoint-interval=1 \
    --kill-after-tiles=3 --faults="seed=2,kernel@0:at=4" \
    > "$WORK/killed.log" || status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 130 ]; then
  echo "kill leg: expected exit 0 or 130, got $status" >&2
  exit 1
fi
[ -f "$WORK/run.ckpt" ]

"$CLI" "${COMMON[@]}" --resume="$WORK/run.ckpt" --checkpoint="$WORK/run.ckpt" \
    --output="$WORK/resumed.csv" > "$WORK/resumed.log"
cmp "$WORK/clean.csv" "$WORK/resumed.csv"
grep -Eq "durability: [1-9][0-9]* tile\(s\) resumed" "$WORK/resumed.log"

# --- Leg 2: seeded fault storms under the watchdog.  Each seed mixes
# deterministic hangs (rescued by speculative re-execution), transient
# kernel faults and probabilistic slowdowns; the profile bytes must never
# change.
for seed in 3 5 9; do
  "$CLI" "${COMMON[@]}" --watchdog --output="$WORK/chaos$seed.csv" \
      --faults="seed=$seed,hang@1:at=3:ms=60000,kernel@0:at=7,slow@0:p=0.2:ms=5" \
      > "$WORK/chaos$seed.log"
  cmp "$WORK/clean.csv" "$WORK/chaos$seed.csv"
done

# --- Leg 3: kill during a fault storm, then resume under the watchdog.
status=0
"$CLI" "${COMMON[@]}" --watchdog --checkpoint="$WORK/storm.ckpt" \
    --checkpoint-interval=1 --kill-after-tiles=2 \
    --faults="seed=4,kernel@1:at=6,slow@0:p=0.3:ms=5" \
    > "$WORK/storm_killed.log" || status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 130 ]; then
  echo "storm kill leg: expected exit 0 or 130, got $status" >&2
  exit 1
fi
"$CLI" "${COMMON[@]}" --watchdog --resume="$WORK/storm.ckpt" \
    --output="$WORK/storm_resumed.csv" > "$WORK/storm_resumed.log"
cmp "$WORK/clean.csv" "$WORK/storm_resumed.csv"

# --- Leg 4: node chaos.  A node crash mid-tile (the dying node gets no
# last append) followed by a resume on *fewer* nodes, and a
# steal storm where every tile start on node 0 stutters — the elastic
# coordinator must converge to the clean bytes in both shapes.
status=0
"$CLI" "${COMMON[@]}" --nodes=3 --node-faults="seed=8,node_crash@2:at=1" \
    --checkpoint="$WORK/node.ckpt" --checkpoint-interval=1 \
    --slice-rows=16 --kill-after-slices=3 \
    > "$WORK/node_killed.log" || status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 130 ]; then
  echo "node kill leg: expected exit 0 or 130, got $status" >&2
  exit 1
fi
[ -f "$WORK/node.ckpt" ]
"$CLI" "${COMMON[@]}" --nodes=2 --resume="$WORK/node.ckpt" \
    --output="$WORK/node_resumed.csv" > "$WORK/node_resumed.log"
cmp "$WORK/clean.csv" "$WORK/node_resumed.csv"

for seed in 6 12; do
  "$CLI" "${COMMON[@]}" --nodes=2 --watchdog \
      --node-faults="seed=$seed,node_slow@0:every=1:ms=15" \
      --output="$WORK/steal$seed.csv" > "$WORK/steal$seed.log"
  cmp "$WORK/clean.csv" "$WORK/steal$seed.csv"
done

# --- Leg 5: a stalled node.  Node 1's first tile stalls for an hour; the
# watchdog (calibrated by node 0's commits) backs it up on node 0, which
# wins, so the run ends in seconds with the clean bytes.  Stealing is off
# so node 0 cannot take the stall tile before node 1 starts it.
timeout 120 "$CLI" --reference="$WORK/ref.csv" --self-join --window=32 \
    --tiles=6 --devices=1 --motifs=0 --nodes=2 --steal=off --watchdog \
    --node-faults="node_stall@1:at=1" --output="$WORK/stall.csv" \
    > "$WORK/stall.log"
cmp "$WORK/clean.csv" "$WORK/stall.csv"
grep -Eq "[1-9][0-9]* speculative win" "$WORK/stall.log"

# --- Leg 6: a hang before calibration.  The only device's first tile
# stalls for a minute at its second launch, before any attempt completed:
# with no progress for 800 ms the watchdog cancels the attempt and the
# retry commits it, so the run ends in seconds, DEGRADED, with the clean
# bytes.
awk 'BEGIN{srand(7);print "a,b";for(t=0;t<500;++t)printf "%.6f,%.6f\n",
  sin(t/9.0)+(rand()-0.5)*0.4,cos(t/13.0)+(rand()-0.5)*0.4}' > "$WORK/ab_ref.csv"
awk 'BEGIN{srand(11);print "a,b";for(t=0;t<400;++t)printf "%.6f,%.6f\n",
  sin((t+40)/9.0)+(rand()-0.5)*0.4,cos((t+40)/13.0)+(rand()-0.5)*0.4}' \
  > "$WORK/ab_qry.csv"
AB=(--reference="$WORK/ab_ref.csv" --query="$WORK/ab_qry.csv" --window=32
    --tiles=4 --devices=1 --motifs=0)
"$CLI" "${AB[@]}" --output="$WORK/ab_clean.csv" > "$WORK/ab_clean.log"
timeout 10 "$CLI" "${AB[@]}" --watchdog --faults="hang@0:at=2:ms=60000" \
    --output="$WORK/uncalibrated.csv" > "$WORK/uncalibrated.log"
cmp "$WORK/ab_clean.csv" "$WORK/uncalibrated.csv"
grep -q "run health: DEGRADED" "$WORK/uncalibrated.log"
grep -q "watchdog fired" "$WORK/uncalibrated.log"

echo "chaos soak OK"
