#!/usr/bin/env bash
# Multi-node identity leg: the elastic coordinator must be invisible in
# the output bytes.  Three hard requirements, each byte-diffed against
# the single-node run:
#   1. an N-node run, across all 5 precision modes x both row paths;
#   2. a run killed mid-tile on N nodes and resumed on M != N nodes;
#   3. a resume whose journal was written under a *different tile grid*.
# Also checks the coordinator.* / node.* metrics counters, the node
# lifecycle spans in --trace-out, and that the modelled time a run prints
# is the same across repeats and faults.  Driven by CTest; $1 = build dir.
set -euo pipefail
BUILD=$1
WORK=$(mktemp -d)
CLI="$BUILD/tools/mpsim_cli"

cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "cli_cluster_test FAILED (exit $status) at line ${FAILED_LINE:-?}" >&2
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
  srand(19); print "a,b";
  for (t = 0; t < 600; ++t) {
    a = sin(t / 9.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 13.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/ref.csv"

COMMON=(--reference="$WORK/ref.csv" --self-join --window=32 --devices=2
        --motifs=0)

# --- Requirement 1: N-node == single-node, all modes x both row paths.
for mode in FP64 FP32 FP16 Mixed FP16C; do
  for path in auto cooperative; do
    "$CLI" "${COMMON[@]}" --tiles=6 --mode="$mode" --row-path="$path" \
        --output="$WORK/one_${mode}_${path}.csv" \
        > "$WORK/one_${mode}_${path}.log"
    "$CLI" "${COMMON[@]}" --tiles=6 --mode="$mode" --row-path="$path" \
        --nodes=3 --output="$WORK/three_${mode}_${path}.csv" \
        > "$WORK/three_${mode}_${path}.log"
    cmp "$WORK/one_${mode}_${path}.csv" "$WORK/three_${mode}_${path}.csv"
  done
done

# --- Requirement 2: kill mid-tile on 3 nodes (sub-tile row slices in the
# journal), resume on 2 nodes.  The kill exits 130 unless the run won the
# race and completed (0); either way the resumed bytes must match.  After
# a kill the resume must restore at least one row slice from its QT row
# (a discarded prefix gives the same bytes, so only the counters show
# it) and never re-run a prefix.
status=0
"$CLI" "${COMMON[@]}" --tiles=6 --mode=Mixed --nodes=3 \
    --checkpoint="$WORK/elastic.ckpt" --checkpoint-interval=1 \
    --slice-rows=16 --kill-after-slices=2 \
    > "$WORK/killed.log" || status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 130 ]; then
  echo "elastic kill: expected exit 0 or 130, got $status" >&2
  exit 1
fi
[ -f "$WORK/elastic.ckpt" ]
"$CLI" "${COMMON[@]}" --tiles=6 --mode=Mixed --nodes=2 \
    --resume="$WORK/elastic.ckpt" --output="$WORK/elastic_resumed.csv" \
    --metrics-out="$WORK/elastic_resumed.json" \
    > "$WORK/elastic_resumed.log"
cmp "$WORK/one_Mixed_auto.csv" "$WORK/elastic_resumed.csv"
if [ "$status" -eq 130 ]; then
  python3 - "$WORK/elastic_resumed.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c.get("resilient.slices_partial", 0) >= 1, c
assert "kernel.qt_replay.launches" not in c, c
EOF
fi

# --- Torn tail: a write cut short mid-record (a crash during an append)
# ends that node segment's log at its last whole record; the resume uses
# the valid prefix, names the discarded tail, and still matches the bytes.
if [ "$status" -eq 130 ]; then
  for f in "$WORK"/elastic.ckpt*; do
    cp "$f" "$WORK/torn${f#"$WORK"/elastic}"
  done
  size=$(wc -c < "$WORK/torn.ckpt.node0")
  truncate -s $((size - 7)) "$WORK/torn.ckpt.node0"
  "$CLI" "${COMMON[@]}" --tiles=6 --mode=Mixed --nodes=2 \
      --resume="$WORK/torn.ckpt" --output="$WORK/torn_resumed.csv" \
      > "$WORK/torn_resumed.log"
  cmp "$WORK/one_Mixed_auto.csv" "$WORK/torn_resumed.csv"
  grep -q "journal tail discarded: .*torn.ckpt.node0' has a bad record at byte" \
      "$WORK/torn_resumed.log"
fi

# --- Requirement 3: the same journal re-keyed onto a *different grid*
# (tiles=6 -> tiles=4) and yet another node count.  The bytes must match
# the clean single-node run under the new grid.
"$CLI" "${COMMON[@]}" --tiles=4 --mode=Mixed \
    --output="$WORK/clean4.csv" > "$WORK/clean4.log"
"$CLI" "${COMMON[@]}" --tiles=4 --mode=Mixed --nodes=4 \
    --resume="$WORK/elastic.ckpt" --output="$WORK/regrid_resumed.csv" \
    > "$WORK/regrid_resumed.log"
cmp "$WORK/clean4.csv" "$WORK/regrid_resumed.csv"

# --- Observability: additive coordinator/node counters in the v2 metrics
# document and node lifecycle spans in the Chrome trace.
"$CLI" "${COMMON[@]}" --tiles=6 --mode=Mixed --nodes=2 --steal=off \
    --metrics-out="$WORK/metrics.json" --trace-out="$WORK/trace.json" \
    --output="$WORK/observed.csv" > "$WORK/observed.log"
cmp "$WORK/one_Mixed_auto.csv" "$WORK/observed.csv"
grep -q 'mpsim-metrics-v2' "$WORK/metrics.json"
for counter in coordinator.tiles_dispatched coordinator.steals \
               coordinator.node_crashes node.commits node.commit_conflicts; do
  grep -q "\"$counter\"" "$WORK/metrics.json"
done
grep -q '"coordinator"' "$WORK/trace.json"
grep -q '"node 0"' "$WORK/trace.json"
grep -q '"node 1"' "$WORK/trace.json"

# --- A node crash mid-run is recovered and reported, bytes unchanged.
"$CLI" "${COMMON[@]}" --tiles=6 --mode=Mixed --nodes=3 \
    --node-faults="seed=6,node_crash@1:at=1" \
    --output="$WORK/crash.csv" > "$WORK/crash.log"
cmp "$WORK/one_Mixed_auto.csv" "$WORK/crash.csv"
grep -q "node 1 crashed" "$WORK/crash.log"

# --- Repeatability: a run reports the model of its plan, so identical
# stealing 3-node runs print one modelled time, and a device fault (a
# retry) does not move it.
for i in 1 2 3 4 5; do
  "$CLI" "${COMMON[@]}" --tiles=6 --mode=Mixed --nodes=3 \
      > "$WORK/repeat_$i.log"
done
"$CLI" "${COMMON[@]}" --tiles=6 --mode=Mixed --nodes=3 \
    --faults="seed=1,kernel@1:at=1" > "$WORK/repeat_fault.log"
times=$(grep -ho 'modeled A100 time: [0-9.]* s' "$WORK"/repeat_*.log)
[ "$(printf '%s\n' "$times" | wc -l)" -eq 6 ]
[ "$(printf '%s\n' "$times" | sort -u | wc -l)" -eq 1 ]

echo "cli cluster OK"
